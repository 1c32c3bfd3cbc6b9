import itertools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkedgrass import cli, gf
from linkedgrass import quiver as qv
from linkedgrass.lattice import configuration
from linkedgrass.verify import SHARED_EDGE_TRIANGLES, WEAKLY_INDEPENDENT_INSTANCES

from test_quiver import extend_partial, is_subrep, pivot_columns, subspaces  # oracle helpers, not tests


def random_rows(rng, n, k, p):
    return [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]


def identity(n):
    """The unit basis of F_p^n, its own rref over every p (`Quiver.unit`)."""
    return tuple(tuple(int(i == k) for i in range(n)) for k in range(n))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_idempotent_and_canonical(p):
    rng = random.Random(p)
    for _ in range(200):
        rows = random_rows(rng, 5, rng.randint(0, 4), p)
        basis = gf.rref(rows, p)
        assert gf.rref(basis, p) == basis
        # canonical: any generating set of the same span reduces identically
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert gf.rref(shuffled, p) == basis


@pytest.mark.parametrize("p,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 3)])
def test_subspace_enumeration_counts(p, n, k):
    subs = [space for space, _, _ in gf.torus_reps(n, k, (0,) * n, p)]
    assert len(subs) == gf.gaussian_binomial(n, k, p)
    assert len(set(subs)) == len(subs)


def is_subspace(a, b, p):
    """True iff span(a) is contained in span(b)."""
    return all(gf.contains(b, row, p) for row in a)


def test_superspaces_partition():
    p = 2
    inner = gf.rref([(1, 0, 0, 0)], p)
    sup = gf.superspaces(inner, 2, identity(4), p)
    assert len(sup) == len({s for s in sup})
    for s in sup:
        assert is_subspace(inner, s, p)
    # every 2-dim space containing inner appears
    expected = [s for s in subspaces(4, 2, p) if is_subspace(inner, s, p)]
    assert sorted(sup) == sorted(expected)


@pytest.mark.parametrize("p", [2, 3])
def test_intersection_and_complement(p):
    rng = random.Random(11 * p)
    for _ in range(200):
        a = gf.rref(random_rows(rng, 4, 2, p), p)
        b = gf.rref(random_rows(rng, 4, 2, p), p)
        cap = gf.intersect(a, b, p)
        for row in cap:
            assert gf.contains(a, row, p) and gf.contains(b, row, p)
        # dim formula
        assert len(cap) == len(a) + len(b) - len(gf.rref(a + b, p))
        comp = gf.complement(cap, a, p)
        assert gf.rref(cap + comp, p) == a
        assert len(cap) + len(comp) == len(a)


def left_kernel(rows, p):
    """Basis of {lam : sum_i lam_i * rows_i = 0}, from the free columns of
    the transposed system: the kernel step of the replaced `intersect`."""
    m = len(rows)
    if m == 0:
        return ()
    transposed = [tuple(rows[i][c] for i in range(m)) for c in range(len(rows[0]))]
    basis = gf.rref(transposed, p)
    pivots = set(pivot_columns(basis))
    out = []
    for j in range(m):
        if j in pivots:
            continue
        lam = [0] * m
        lam[j] = 1
        for row in basis:
            lam[row.index(1)] = (-row[j]) % p
        out.append(tuple(lam))
    return gf.rref(out, p)


def intersect_oracle(a, b, p):
    """The replaced `gf.intersect`: the left kernel of a's residuals modulo b."""
    if not a or not b:
        return ()
    lam_basis = left_kernel([gf.reduce_vec(row, b, p) for row in a], p)
    vecs = []
    for lam in lam_basis:
        v = tuple(0 for _ in a[0])
        for c, row in zip(lam, a):
            v = gf.vec_add(v, gf.vec_scale(c, row, p), p)
        vecs.append(v)
    return gf.rref(vecs, p)


def preimage(images_of_basis, target, p):
    """Basis of {x : sum_i x_i * images_of_basis[i] in span(target)}."""
    return left_kernel([gf.reduce_vec(img, target, p) for img in images_of_basis], p)


def all_vectors(basis, p):
    """Every vector of span(basis), zero included, by its p^k coefficient tuples."""
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = (0,) * len(basis[0])
        for c, row in zip(coeffs, basis):
            v = gf.vec_add(v, gf.vec_scale(c, row, p), p)
        out.append(v)
    return out


def test_left_kernel_and_preimage():
    p = 3
    rows = [(1, 0, 2), (2, 0, 1), (0, 0, 0)]
    ker = left_kernel(rows, p)
    for lam in all_vectors(ker, p):
        total = (0, 0, 0)
        for c, row in zip(lam, rows):
            total = gf.vec_add(total, gf.vec_scale(c, row, p), p)
        assert gf.is_zero(total)
    # preimage of a line under a projection
    images = [(1, 0), (0, 0), (0, 1)]
    target = gf.rref([(1, 0)], p)
    pre = preimage(images, target, p)
    for x in all_vectors(pre, p):
        img = (x[0] % p, x[2] % p)
        assert gf.contains(target, img, p)
    assert len(pre) == 2


def vectors(n, p):
    return st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)


@st.composite
def spans_and_coords(draw):
    """Unreduced generating rows, an unsorted coordinate set, n and p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(vectors(n, p), max_size=n + 1))
    coords = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    return rows, list(coords), n, p


@settings(max_examples=800, derandomize=True, database=None)
@given(spans_and_coords())
@example(([(1, 2, 0), (0, 1, 1)], [], 3, 3))  # S empty
@example(([(1, 2, 0), (0, 1, 1)], [2, 0, 1], 3, 3))  # S full, unsorted
@example(([(1, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 1)], [3, 0], 4, 2))  # unsorted S
@example(([], [1], 3, 5))  # empty basis
def test_vanishing_on_matches_intersect_oracle(case):
    rows, coords, n, p = case
    units = tuple(tuple(int(i == k) for i in range(n)) for k in range(n) if k not in coords)
    got = gf.vanishing_on(tuple(rows), tuple(coords), p)
    assert got == intersect_oracle(gf.rref(rows, p), units, p)
    assert got == gf.rref(got, p)
    assert all(row[k] == 0 for row in got for k in coords)


def rref_oracle(rows, p):
    """The `rref` replaced: pivots tested with `% p`, rows reduced again at the end."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    rank = 0
    for col in range(len(work[0])):
        piv = next((r for r in range(rank, len(work)) if work[r][col] % p != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p) if p > 2 else 1
        work[rank] = [(x * inv) % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] % p != 0:
                c = work[r][col] % p
                work[r] = [(x - c * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(x % p for x in row) for row in work[:rank])


def vanishing_on_oracle(basis, coords, p):
    """The `vanishing_on` replaced: permute the coords columns first, rref,
    keep the rows zero on them and permute back."""
    if not basis:
        return ()
    first = sorted(set(coords))
    order = first + [k for k in range(len(basis[0])) if k not in first]
    back = sorted(range(len(order)), key=order.__getitem__)
    echelon = rref_oracle([tuple(row[k] for k in order) for row in basis], p)
    return tuple(tuple(row[j] for j in back) for row in echelon if not any(row[: len(first)]))


@st.composite
def raw_spans_and_coords(draw):
    """Like `spans_and_coords`, with entries not yet reduced mod p."""
    rows, coords, n, p = draw(spans_and_coords())
    lifted = [tuple(x + p * draw(st.integers(-2, 2)) for x in row) for row in rows]
    return lifted, coords, n, p


@settings(max_examples=800, derandomize=True, database=None)
@given(raw_spans_and_coords())
@example(([(1, 2, 0), (0, 1, 1)], [], 3, 3))  # S empty
@example(([(1, 2, 0), (0, 1, 1)], [2, 0, 1], 3, 3))  # S full, unsorted
@example(([(1, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 1)], [3, 0], 4, 2))  # unsorted S
@example(([], [1], 3, 5))  # empty basis
@example(([(7, -5, 14), (3, 3, 3)], [1], 3, 7))  # unreduced entries
def test_rref_and_vanishing_on_match_replaced_implementations(case):
    rows, coords, n, p = case
    assert gf.rref(rows, p) == rref_oracle(rows, p)
    assert gf.vanishing_on(tuple(rows), tuple(coords), p) == vanishing_on_oracle(rows, coords, p)


@st.composite
def kernel_arguments(draw):
    """Two tuples of rows, a sorted coordinate tuple and p, all hashable."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    rows = tuple(draw(st.lists(vectors(n, p), max_size=n + 1)))
    other = tuple(draw(st.lists(vectors(n, p), max_size=n + 1)))
    coords = tuple(sorted(draw(st.sets(st.integers(0, n - 1)))))
    return rows, other, coords, p


@settings(max_examples=500, derandomize=True, database=None)
@given(kernel_arguments())
@example((((1, 2, 0), (0, 1, 1)), (), (), 3))  # no coordinates, empty outer
@example(((), ((0, 1, 1),), (1,), 5))  # empty basis
def test_memoised_kernels_equal_their_uncached_bodies(case):
    rows, other, coords, p = case
    for kernel, args in [
        (gf.vanishing_on, (rows, coords, p)),
        (gf.project, (rows, coords, p)),
        (gf.complement, (rows, other, p)),
    ]:
        got = kernel(*args)
        assert got == kernel.__wrapped__(*args)
        assert type(got) is tuple and all(type(row) is tuple for row in got)
        assert kernel(*args) is got  # the second call is answered by the memo


@settings(max_examples=500, derandomize=True, database=None)
@given(raw_spans_and_coords())
def test_rref_is_idempotent(case):
    rows, _, _, p = case
    basis = gf.rref(rows, p)
    assert gf.rref(basis, p) == basis
    assert all(0 <= x < p for row in basis for x in row)


@st.composite
def bases_and_vectors(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 7))
    basis = gf.rref(draw(st.lists(vectors(n, p), max_size=n + 1)), p)
    if draw(st.booleans()):  # a vector of the span, or a random one
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(basis), max_size=len(basis)))
        v = (0,) * n
        for c, row in zip(coeffs, basis):
            v = gf.vec_add(v, gf.vec_scale(c, row, p), p)
    else:
        v = draw(vectors(n, p))
    return basis, v, p


@settings(max_examples=800, derandomize=True, database=None)
@given(bases_and_vectors())
@example(((), (0, 0, 0), 3))  # empty basis, zero vector
@example(((), (0, 2, 1), 3))  # empty basis
@example((((0, 1, 0), (0, 0, 1)), (2, 1, 1), 3))  # new pivot before every row
@example((((1, 2, 0), (0, 0, 1)), (0, 1, 0), 5))  # new pivot between rows
def test_insert_matches_rref_and_contains(case):
    basis, v, p = case
    grown = gf.insert(basis, v, p)
    if gf.contains(basis, v, p):
        assert grown is None
    else:
        assert grown == gf.rref(basis + (v,), p) == rref_oracle(basis + (v,), p)


@st.composite
def superspace_cases(draw):
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    inner = gf.rref(draw(st.lists(vectors(n, p), max_size=n)), p)
    k = draw(st.integers(len(inner), n))
    return inner, k, n, p


@settings(max_examples=150, derandomize=True, database=None)
@given(superspace_cases())
def test_superspace_count_is_gaussian_binomial(case):
    """k-spaces through a w-space of F_p^n are the (k - w)-spaces of the quotient."""
    inner, k, n, p = case
    sup = gf.superspaces(inner, k, identity(n), p)
    assert len(sup) == len(set(sup)) == gf.gaussian_binomial(n - len(inner), k - len(inner), p)
    assert all(len(s) == k and is_subspace(inner, s, p) for s in sup)


def quotient_key(space, inner, n, p):
    """(pivot_columns(W/inner), W/inner), W/inner written in the columns that
    are not pivots of inner: the order `superspaces` promises."""
    free = [c for c in range(n) if c not in pivot_columns(inner)]
    quotient = gf.rref([tuple(gf.reduce_vec(row, inner, p)[c] for c in free) for row in space], p)
    return pivot_columns(quotient), quotient


@st.composite
def interval_cases(draw):
    """inner, k, outer, n, p; inner lies in outer about half the time."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4 if p == 5 else 5))
    outer = gf.rref(draw(st.lists(vectors(n, p), max_size=n)), p)
    if draw(st.booleans()):
        rows = []
        for coeffs in draw(st.lists(vectors(len(outer), p), max_size=len(outer))):
            row = (0,) * n
            for c, x in zip(coeffs, outer):
                row = gf.vec_add(row, gf.vec_scale(c, x, p), p)
            rows.append(row)
    else:
        rows = draw(st.lists(vectors(n, p), max_size=n))
    return gf.rref(rows, p), draw(st.integers(0, n)), outer, n, p


@settings(max_examples=400, derandomize=True, database=None)
@given(interval_cases())
def test_superspaces_walk_the_interval_in_the_full_grassmannian_order(case):
    inner, k, outer, n, p = case
    full = gf.superspaces(inner, k, identity(n), p)
    expected = [s for s in subspaces(n, k, p) if is_subspace(inner, s, p)]
    assert list(full) == sorted(expected, key=lambda s: quotient_key(s, inner, n, p))
    got = gf.superspaces(inner, k, outer, p)
    assert got == tuple(s for s in full if is_subspace(s, outer, p))
    if is_subspace(inner, outer, p):
        assert len(got) == gf.gaussian_binomial(len(outer) - len(inner), k - len(inner), p)
    else:
        assert got == ()



def lifted_quotient_spaces(inner, k, outer, p):
    """The lifted rows C.Q of each member of the interval, with C from the
    separate enumerator `subspaces`: the replaced `gf.superspaces` before
    its merge with inner."""
    if k < len(inner) or not is_subspace(inner, outer, p):
        return
    quotient = gf.rref([gf.reduce_vec(row, inner, p) for row in outer], p)
    for coeffs in subspaces(len(quotient), k - len(inner), p):
        yield [tuple(sum(c * x for c, x in zip(crow, col)) % p for col in zip(*quotient)) for crow in coeffs]


def superspaces_by_rref(inner, k, outer, p):
    """Every member as the rref of inner's rows together with the lifted rows."""
    return tuple(gf.rref(list(inner) + lifted, p) for lifted in lifted_quotient_spaces(inner, k, outer, p))


def superspaces_by_clearing(inner, k, outer, p):
    """Every member as the replaced body of `gf.superspaces` built it:
    inner's rows cleared at the lifted rows' pivots, the two merged by a
    sort on the pivot."""
    out = []
    for lifted in lifted_quotient_spaces(inner, k, outer, p):
        rows = list(lifted)
        for row in inner:
            for lift in lifted:
                c = row[lift.index(1)]
                if c:
                    row = tuple((x - c * y) % p for x, y in zip(row, lift))
            rows.append(row)
        out.append(tuple(sorted(rows, key=lambda row: row.index(1))))
    return tuple(out)


@settings(max_examples=400, derandomize=True, database=None)
@given(interval_cases())
def test_superspaces_merge_equals_the_rref_construction(case):
    """Both replaced constructions, over the separate enumerator `subspaces`,
    build every interval as `torus_reps` and `insert` do."""
    inner, k, outer, n, p = case
    for top in (identity(n), outer):
        got = gf.superspaces(inner, k, top, p)
        assert got == superspaces_by_rref(inner, k, top, p) == superspaces_by_clearing(inner, k, top, p)


def torus_act(t, space, p):
    """t.W for a diagonal t, by elimination of the scaled rows."""
    return gf.rref([tuple(x * s for x, s in zip(row, t)) for row in space], p)


def connected_components(space, n):
    """Components of the graph on the n columns that joins each row's pivot
    to that row's other nonzero columns."""
    parent = list(range(n))

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for row in space:
        piv = row.index(1)
        for c, x in enumerate(row):
            if x:
                parent[root(c)] = root(piv)
    return len({root(c) for c in range(n)})


def kept_members(spaces, blocks, p):
    """(space, orbit size, stabilizer's blocks) for each space `gf.torus_rep` keeps."""
    return [(space, *kept) for space in spaces if (kept := gf.torus_rep(space, blocks, p)) is not None]


@pytest.mark.parametrize(
    "n,k,p", [(n, k, p) for p in (2, 3, 5) for n in range(1, 5 if p == 5 else 6) for k in range(n + 1)]
)
def test_torus_orbits_partition_the_grassmannian(n, k, p):
    spaces = subspaces(n, k, p)
    torus = list(itertools.product(range(1, p), repeat=n))
    kept = kept_members(spaces, tuple(range(n)), p)
    covered = set()
    for space, size, _ in kept:
        orbit = {torus_act(t, space, p) for t in torus}
        assert len(orbit) == size == (p - 1) ** (n - connected_components(space, n))
        assert not orbit & covered
        covered |= orbit
    assert covered == set(spaces)
    assert sum(size for _, size, _ in kept) == gf.gaussian_binomial(n, k, p)
    if p == 2:
        assert [(space, size) for space, size, _ in kept] == [(s, 1) for s in spaces]


def test_torus_orbit_counts():
    def orbits(n, k, p):
        return len(kept_members(subspaces(n, k, p), tuple(range(n)), p))

    assert [orbits(4, 2, p) for p in (2, 3, 5)] == [35, 36, 38]
    assert all(orbits(n, 1, p) == 2**n - 1 for n in range(1, 6) for p in (2, 3, 5))


def block_partition(labels):
    """The set partition of the coordinates that equal labels name."""
    return {frozenset(c for c, x in enumerate(labels) if x == label) for label in labels}


@st.composite
def blocked_interval_cases(draw):
    """An interval whose ends are spanned by rows each inside one block of a
    drawn partition, so the diagonal matrices constant on the blocks keep
    both ends and permute the interval.  The outer end is F_p^n half the
    time, the inner end lies in it half the time, and k lies strictly
    between their dimensions when it can."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, {3: 5, 5: 4, 7: 3}[p]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    blocks = tuple(rng.randrange(n) for _ in range(n))

    def blocked_rows(count):
        rows = []
        for _ in range(count):
            block = rng.choice(blocks)
            rows.append(tuple(rng.randrange(p) if x == block else 0 for x in blocks))
        return rows

    outer_rows = list(identity(n)) if rng.random() < 0.5 else blocked_rows(rng.randint(1, n + 1))
    if rng.random() < 0.5:
        inner_rows = [row for row in outer_rows if rng.random() < 0.3]
    else:
        inner_rows = blocked_rows(rng.randint(0, 2))
    inner, outer = gf.rref(inner_rows, p), gf.rref(outer_rows, p)
    low, high = len(inner), max(len(inner), len(outer))
    k = rng.randint(low + 1, high - 1) if high - low >= 2 else rng.randint(low, high)
    return inner, k, outer, blocks, p


@settings(max_examples=400, derandomize=True, database=None)
@given(blocked_interval_cases())
def test_torus_rep_keeps_one_member_per_orbit_of_the_blocked_torus(case):
    inner, k, outer, blocks, p = case
    names = sorted(set(blocks))
    torus = [
        tuple(dict(zip(names, values))[label] for label in blocks)
        for values in itertools.product(range(1, p), repeat=len(names))
    ]
    interval = gf.superspaces(inner, k, outer, p)
    covered = set()
    for space, size, merged in kept_members(interval, blocks, p):
        orbit = {torus_act(t, space, p) for t in torus}
        assert len(orbit) == size
        assert not orbit & covered
        covered |= orbit
        stabilizer = [t for t in torus if torus_act(t, space, p) == space]
        assert block_partition(merged) == {
            frozenset(j for j in range(len(blocks)) if all(t[i] == t[j] for t in stabilizer))
            for i in range(len(blocks))
        }
    assert covered == set(interval)


def labellings(n):
    """Singleton, single, paired and alternating block labels of n coordinates."""
    return sorted({tuple(range(n)), (0,) * n, tuple(c // 2 for c in range(n)), tuple(c % 2 for c in range(n))})


@pytest.mark.parametrize(
    "n,k,p", [(n, k, p) for p in (2, 3, 5, 7) for n in range(1, 6) for k in range(n + 1)]
)
def test_torus_reps_are_the_kept_members_of_the_whole_grassmannian(n, k, p):
    # the uncached bodies, so the p = 7 lists are freed with the test
    full = subspaces.__wrapped__(n, k, p)
    for blocks in labellings(n):
        assert list(gf.torus_reps.__wrapped__(n, k, blocks, p)) == kept_members(full, blocks, p)


@st.composite
def span_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 7))
    a = draw(st.lists(vectors(n, p), max_size=n + 1))
    b = draw(st.lists(vectors(n, p), max_size=n + 1))
    return gf.rref(a, p), gf.rref(b, p), p


@settings(max_examples=500, derandomize=True, database=None)
@given(span_pairs())
def test_intersect_matches_oracle(case):
    a, b, p = case
    assert gf.intersect(a, b, p) == intersect_oracle(a, b, p)


@settings(max_examples=300, derandomize=True, database=None)
@given(span_pairs())
def test_intersection_dimension_formula(case):
    a, b, p = case
    assert len(gf.intersect(a, b, p)) + len(gf.rref(a + b, p)) == len(a) + len(b)


@pytest.mark.parametrize("p", [2, 3])
def test_pullback_matches_preimage_oracle(p):
    configs = {tuple(verts) for verts, _ in WEAKLY_INDEPENDENT_INSTANCES.values()}
    checked = 0
    for verts in sorted(configs | {tuple(SHARED_EDGE_TRIANGLES)}):
        quiver = qv.Quiver(configuration(verts))
        for u in quiver.vertices:
            for v in quiver.vertices:  # every arrow, and every pair `extend_partial` pulls along
                images = [quiver.apply_map(u, v, e, p) for e in quiver.unit]
                for k in range(quiver.d + 1):
                    for basis in subspaces(quiver.d, k, p):
                        assert quiver.pullback(u, v, basis, p) == preimage(images, basis, p)
                        checked += 1
    assert checked > 2500


def test_check_prime():
    for p in (2, 3, 5, 7, 11, 13):
        gf.check_prime(p)
    for p in (-3, 0, 1, 4, 6, 9, 15, 25):
        with pytest.raises(ValueError):
            gf.check_prime(p)


def rank_increase_complement(inner, outer, p):
    """The greedy `complement` replaced: keep a row iff it raises the rank of rref(kept + row)."""
    cur = list(inner)
    comp = []
    r = len(gf.rref(cur, p))
    for row in outer:
        cand = gf.rref(cur + [row], p)
        if len(cand) > r:
            comp.append(row)
            cur.append(row)
            r = len(cand)
    return tuple(comp)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_complement_is_the_greedy_subsequence(p):
    rng = random.Random(101 * p)
    for _ in range(300):
        inner = random_rows(rng, 5, rng.randint(0, 3), p)
        outer = random_rows(rng, 5, rng.randint(0, 6), p)
        comp = gf.complement(tuple(inner), tuple(outer), p)
        # a subsequence of outer
        rest = iter(outer)
        assert all(any(row == x for x in rest) for row in comp)
        assert comp == rank_increase_complement(inner, outer, p)
        assert len(comp) == len(gf.rref(inner + outer, p)) - len(gf.rref(inner, p))
        # every prefix extends inner independently
        for k in range(len(comp) + 1):
            assert len(gf.rref(inner + list(comp[:k]), p)) == len(gf.rref(inner, p)) + k


def reduce_vec_oracle(v, basis, p):
    """`reduce_vec` finding each pivot by scanning for the first nonzero entry."""
    out = list(v)
    for row in basis:
        piv = next(i for i, x in enumerate(row) if x)
        c = out[piv] % p
        if c:
            out = [(x - c * y) % p for x, y in zip(out, row)]
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduce_vec_matches_pivot_scan_oracle(p):
    rng = random.Random(p)
    for n in range(1, 5):
        vectors = list(itertools.product(range(p), repeat=n))
        if len(vectors) > 81:
            vectors = rng.sample(vectors, 81)
        for k in range(n + 1):
            for basis in subspaces(n, k, p):
                assert [row.index(1) for row in basis] == [
                    next(i for i, x in enumerate(row) if x) for row in basis
                ]
                for v in vectors:
                    assert gf.reduce_vec(v, basis, p) == reduce_vec_oracle(v, basis, p)


def test_reduce_vec_is_only_given_rref_bases(monkeypatch, capsys):
    reduce_vec = gf.reduce_vec
    calls = []

    def checked(v, basis, p):
        assert tuple(basis) == gf.rref(basis, p), basis
        calls.append(basis)
        return reduce_vec(v, basis, p)

    monkeypatch.setattr(gf, "reduce_vec", checked)
    configs = Path(__file__).resolve().parents[1] / "bench" / "configs"
    assert cli.main(["strata", str(configs / "branched-d4.json"), "--r", "2", "--p", "3"]) == 0
    capsys.readouterr()
    quiver = qv.Quiver(configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0)]))
    rng = random.Random(20)
    for _ in range(20):
        seeds = [(rng.choice(quiver.vertices), (1, rng.randrange(3), rng.randrange(3))) for _ in range(2)]
        qv.decompose(qv.generated(quiver, seeds, 3), quiver)
    # enumeration tests no candidate: closure checks and extensions of its points reduce instead
    for r in (1, 2):
        for M in qv.enumerate_subreps(quiver, r, 3):
            assert is_subrep(M, quiver) == (True, None)
            for v in quiver.vertices:
                assert extend_partial(quiver, {v: M.spaces[v]}, r, 3) is not None
    assert len(calls) > 1000
