import collections
import functools
import itertools
import os
import random
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkedgrass import admissible as adm
from linkedgrass import cli, gf, independence
from linkedgrass import quiver as qv
from linkedgrass.lattice import Configuration, InvariantError, configuration
from linkedgrass.verify import SHARED_EDGE_TRIANGLES, SIMPLEX_INSTANCES, WEAKLY_INDEPENDENT_INSTANCES


def make_quiver(vertices):
    return qv.Quiver(configuration(vertices))


def ambient(quiver, p):
    return qv.SubRep(p, {v: quiver.unit for v in quiver.vertices})


def zero_rep(quiver, p):
    return qv.SubRep(p, {v: () for v in quiver.vertices})


def vec(entries, p):
    return tuple(x % p for x in entries)


def pivot_columns(basis):
    return tuple(next(i for i, x in enumerate(row) if x) for row in basis)


@functools.cache
def subspaces(n, k, p):
    """All k-dimensional subspaces of F_p^n as rref bases, lexicographic order,
    each pivot pattern's free entries filled by `itertools.product`: the
    oracle of `gf.torus_reps`, which builds them itself."""
    if k == 0:
        return ((),)
    out = []
    for pivots in itertools.combinations(range(n), k):
        free_positions = []
        for r, piv in enumerate(pivots):
            for c in range(piv + 1, n):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in itertools.product(range(p), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(k)]
            for r, piv in enumerate(pivots):
                rows[r][piv] = 1
            for (r, c), val in zip(free_positions, values):
                rows[r][c] = val
            out.append(tuple(tuple(row) for row in rows))
    return tuple(out)


def is_subrep(M, quiver):
    """Closure under the quiver arrows; returns a violating arrow on failure."""
    for u, v in quiver.arrows:
        for row in M.spaces[u]:
            if not gf.contains(M.spaces[v], quiver.apply_map(u, v, row, M.p), M.p):
                return False, (u, v)
    return True, None


OMEGA3 = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
SEGMENT = [(0, 0), (1, 0)]
PATH2 = [(0, 0), (1, 0), (2, 0)]
BRANCHED = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)]

CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def config_quiver(name):
    return qv.Quiver(Configuration.from_json((CONFIGS / f"{name}.json").read_text()))


def test_build_quiver_simplex_cycle():
    quiver = make_quiver(OMEGA3)
    chain = quiver.simplices[0]
    expected = {(chain[i], chain[(i + 1) % 3]) for i in range(3)}
    assert set(quiver.arrows) == expected


def test_build_quiver_two_cycle():
    quiver = make_quiver(SEGMENT)
    assert set(quiver.arrows) == {((0, 0), (1, 0)), ((1, 0), (0, 0))}


def test_build_quiver_chain_has_no_long_arrows():
    quiver = make_quiver(PATH2)
    assert ((0, 0), (2, 0)) not in quiver.arrows
    assert ((2, 0), (0, 0)) not in quiver.arrows
    assert len(quiver.arrows) == 4


def oracle_arrows(quiver):
    """All-paths factoring oracle: an arrow survives iff no non-repeating
    path of length >= 2 composes to the same reduced map."""
    verts = quiver.vertices
    kept = []
    for u, v in itertools.permutations(verts, 2):
        target = quiver.trans[(u, v)]
        found = False
        for k in range(1, len(verts) - 1):
            for middle in itertools.permutations([w for w in verts if w not in (u, v)], k):
                path = (u,) + middle + (v,)
                shift = sum(quiver.trans[(a, b)].n for a, b in zip(path, path[1:]))
                support = frozenset(range(1, quiver.d + 1))
                for a, b in zip(path, path[1:]):
                    support &= quiver.trans[(a, b)].support
                if shift == target.n and support == target.support:
                    found = True
                    break
            if found:
                break
        if not found:
            kept.append((u, v))
    return set(kept)


@pytest.mark.parametrize(
    "vertices",
    [OMEGA3, SEGMENT, PATH2, BRANCHED, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]],
)
def test_two_step_arrow_removal_matches_all_paths_oracle(vertices):
    quiver = make_quiver(vertices)
    assert set(quiver.arrows) == oracle_arrows(quiver)


def test_build_quiver_rejects_non_convex():
    with pytest.raises(ValueError):
        make_quiver([(0, 0), (2, 0)])


CONFIG_NAMES = sorted(path.stem for path in CONFIGS.glob("*.json"))


@pytest.mark.parametrize(
    "vertices",
    [OMEGA3, PATH2, BRANCHED]
    + [pytest.param(config_quiver(name).vertices, id=name) for name in CONFIG_NAMES],
)
def test_every_pair_map_is_an_arrow_path_composite(vertices):
    quiver = make_quiver(vertices)
    for u in quiver.vertices:
        for v in quiver.vertices:
            if u == v:
                continue
            target = quiver.trans[(u, v)]
            found = False
            stack = [(u, 0, frozenset(range(1, quiver.d + 1)), frozenset({u}))]
            while stack and not found:
                node, shift, support, seen = stack.pop()
                for nxt in quiver.out_arrows[node]:
                    if nxt in seen:
                        continue
                    t = quiver.trans[(node, nxt)]
                    s2, supp2 = shift + t.n, support & t.support
                    if nxt == v:
                        if s2 == target.n and supp2 == target.support:
                            found = True
                            break
                    else:
                        stack.append((nxt, s2, supp2, seen | {nxt}))
            assert found, f"map {u}->{v} is not a composite along quiver arrows"


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_two_step_composite_is_direct_map_or_zero(name):
    """The reduced map u -> k -> w projects onto supp(u, k) & supp(k, w): that
    is supp(u, w) when the shifts add up and empty when they overshoot."""
    quiver = config_quiver(name)
    for u, k, w in itertools.product(quiver.vertices, repeat=3):
        first, second, direct = quiver.trans[(u, k)], quiver.trans[(k, w)], quiver.trans[(u, w)]
        assert first.n + second.n >= direct.n
        meet = first.support & second.support
        assert meet == (direct.support if first.n + second.n == direct.n else frozenset())


def test_ambient_ranks():
    quiver = make_quiver(OMEGA3)
    M = ambient(quiver, 2)
    phi = qv.rank_vector(M, quiver).as_dict()
    for u in quiver.vertices:
        assert phi[(u, u)] == 3
        for v in quiver.vertices:
            if u != v:
                assert phi[(u, v)] == len(quiver.trans[(u, v)].support)
    # composites along a full cycle vanish
    chain = quiver.simplices[0]
    support = frozenset(range(1, 4))
    cycle = chain + (chain[0],)
    for a, b in zip(cycle, cycle[1:]):
        support &= quiver.trans[(a, b)].support
    assert not support


def test_is_subrep():
    quiver = make_quiver(SEGMENT)
    p = 2
    assert is_subrep(zero_rep(quiver, p), quiver) == (True, None)
    assert is_subrep(ambient(quiver, p), quiver) == (True, None)
    bad = qv.SubRep(p, {(0, 0): gf.rref([(0, 1)], p), (1, 0): gf.rref([(1, 0)], p)})
    ok, witness = is_subrep(bad, quiver)
    assert not ok and witness == ((0, 0), (1, 0))


def test_generated():
    quiver = make_quiver(OMEGA3)
    p = 3
    assert qv.generated(quiver, [], p) == zero_rep(quiver, p)
    full = []
    for v in quiver.vertices:
        for k in range(quiver.d):
            full.append((v, tuple(1 if i == k else 0 for i in range(quiver.d))))
    assert qv.generated(quiver, full, p) == ambient(quiver, p)
    one = qv.generated(quiver, [((0, 0, 0), (1, 1, 1))], p)
    assert all(len(b) <= 1 for b in one.spaces.values())
    assert is_subrep(one, quiver) == (True, None)


def generated_fixed_point(quiver, seeds, p):
    """The closure `generated` replaced: sweep every arrow until nothing changes."""
    spaces = {v: [] for v in quiver.vertices}
    for v, vector in seeds:
        spaces[v].append(vec(vector, p))
    changed = True
    while changed:
        changed = False
        for u, v in quiver.arrows:
            basis_v = gf.rref(spaces[v], p)
            for row in gf.rref(spaces[u], p):
                img = quiver.apply_map(u, v, row, p)
                if not gf.is_zero(img) and not gf.contains(basis_v, img, p):
                    spaces[v].append(img)
                    basis_v = gf.rref(spaces[v], p)
                    changed = True
    return qv.SubRep(p, {v: gf.rref(rows, p) for v, rows in spaces.items()})


def generated_worklist(quiver, seeds, p):
    """The worklist closure `generated` replaced: a vector outside the space at
    its vertex joins it and is pushed along every arrow out of that vertex."""
    spaces = {v: () for v in quiver.vertices}
    work = [(v, vec(vector, p)) for v, vector in seeds]
    while work:
        v, x = work.pop()
        if gf.contains(spaces[v], x, p):
            continue
        spaces[v] = gf.rref(spaces[v] + (x,), p)
        work.extend((w, quiver.apply_map(v, w, x, p)) for w in quiver.out_arrows[v])
    return qv.SubRep(p, spaces)


GENERATED_INSTANCES = {
    name: verts for name, (verts, _) in WEAKLY_INDEPENDENT_INSTANCES.items()
} | {"shared-edge-triangles": SHARED_EDGE_TRIANGLES}


@pytest.mark.parametrize("name", sorted(GENERATED_INSTANCES))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_generated_matches_fixed_point_oracle(name, p):
    quiver = make_quiver(GENERATED_INSTANCES[name])
    rng = random.Random(f"{name}/{p}")
    for _ in range(60):
        seeds = [
            (rng.choice(quiver.vertices), tuple(rng.randrange(p) for _ in range(quiver.d)))
            for _ in range(rng.randint(0, 4))
        ]
        M = qv.generated(quiver, seeds, p)
        assert M == generated_fixed_point(quiver, seeds, p)
        assert is_subrep(M, quiver) == (True, None)


def random_seeds(quiver, rng, p, most):
    return [
        (rng.choice(quiver.vertices), tuple(rng.randrange(p) for _ in range(quiver.d)))
        for _ in range(rng.randint(0, most))
    ]


@pytest.mark.parametrize("name", CONFIG_NAMES)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_generated_matches_worklist_oracle(name, p):
    quiver = config_quiver(name)
    rng = random.Random(f"worklist/{name}/{p}")
    for _ in range(60):
        seeds = random_seeds(quiver, rng, p, 4)
        assert qv.generated(quiver, seeds, p) == generated_worklist(quiver, seeds, p)


def generated_over_base(quiver, seeds, p, base):
    """The `base` parameter `generated` dropped, which `deform_step` used for
    the other summands: each seed image joins the space of `base` at its
    vertex by one `gf.insert`."""
    spaces = {}
    for w in quiver.vertices:
        space = base.spaces[w]
        for v, x in seeds:
            space = gf.insert(space, quiver.apply_map(v, w, x, p), p) or space
        spaces[w] = space
    return qv.SubRep(p, spaces)


@pytest.mark.parametrize("name", CONFIG_NAMES)
@pytest.mark.parametrize("p", [2, 3])
def test_generated_over_a_base_equals_generated_over_all_seeds(name, p):
    quiver = config_quiver(name)
    rng = random.Random(f"base/{name}/{p}")
    for _ in range(40):
        seeds = random_seeds(quiver, rng, p, 5)
        k = rng.randint(0, len(seeds))
        base = qv.generated(quiver, seeds[:k], p)
        assert generated_over_base(quiver, seeds[k:], p, base) == qv.generated(quiver, seeds, p)
    full = ambient(quiver, p)
    assert generated_over_base(quiver, random_seeds(quiver, rng, p, 3), p, full) == full


@pytest.mark.parametrize("p", [0, 1, 4, 6])
def test_entry_points_reject_non_prime_p(p):
    quiver = make_quiver(OMEGA3)
    with pytest.raises(ValueError):
        qv.generated(quiver, [((0, 0, 0), (1, 0, 0))], p)
    with pytest.raises(ValueError):
        next(qv.enumerate_subreps(quiver, 1, p))


def test_support_of_generated():
    quiver = make_quiver(SEGMENT)
    p = 2
    assert qv.support_of_generated(quiver, (0, 0), (1, 1), p) == frozenset(SEGMENT)
    # e1 at (0,0) dies under the support-{2} map
    assert qv.support_of_generated(quiver, (0, 0), (1, 0), p) == frozenset({(0, 0)})
    with pytest.raises(ValueError):
        qv.support_of_generated(quiver, (0, 0), (0, 0), p)


def support_by_maps(quiver, v, vector, p):
    """The former body of `support_of_generated`, as oracle: apply every map
    out of v and keep the vertices where the image is nonzero."""
    vector = vec(vector, p)
    if gf.is_zero(vector):
        raise ValueError("zero vector has empty support")
    out = {v}
    for u in quiver.vertices:
        if u != v and not gf.is_zero(quiver.apply_map(v, u, vector, p)):
            out.add(u)
    return frozenset(out)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_support_of_generated_matches_the_map_oracle(p):
    names = sorted(path.stem for path in CONFIGS.glob("*.json"))
    assert len(names) == 12
    rng = random.Random(f"support/{p}")
    checked = 0
    for name in names:
        quiver = config_quiver(name)
        for v in quiver.vertices:
            for _ in range(12):
                # entries outside 0..p-1, so the reduction mod p is exercised
                x = tuple(rng.randrange(-2 * p, 3 * p) for _ in range(quiver.d))
                if gf.is_zero(vec(x, p)):
                    continue
                assert qv.support_of_generated(quiver, v, x, p) == support_by_maps(quiver, v, x, p), (name, v, x)
                checked += 1
            multiple = tuple(p * rng.randrange(-2, 3) for _ in range(quiver.d))
            for support in (qv.support_of_generated, support_by_maps):
                with pytest.raises(ValueError, match="zero vector"):
                    support(quiver, v, multiple, p)
    assert checked > 450  # of 12 draws at each of the 41 vertices


def test_subrep_equality_ignores_dict_order_and_keeps_its_own_dict():
    quiver = make_quiver(OMEGA3)
    M = qv.generated(quiver, [((0, 0, 0), (1, 1, 0))], 3)
    spaces = dict(reversed(M.spaces.items()))
    assert list(spaces) != list(M.spaces)
    N = qv.SubRep(3, spaces)
    assert N == M and qv.SubRep(2, spaces) != M
    spaces[(0, 0, 0)] = quiver.unit
    assert N == M and N.spaces[(0, 0, 0)] == M.spaces[(0, 0, 0)]


def test_rank_vector_zero_and_single_generator():
    quiver = make_quiver(OMEGA3)
    p = 2
    zero = qv.rank_vector(zero_rep(quiver, p), quiver)
    assert all(v == 0 for _, v in zero.entries)
    one = qv.generated(quiver, [((0, 0, 0), (1, 1, 1))], p)
    phi = qv.rank_vector(one, quiver).as_dict()
    supp = qv.support_of_generated(quiver, (0, 0, 0), (1, 1, 1), p)
    for u in quiver.vertices:
        assert phi[(u, u)] == (1 if u in supp else 0)
        for v in quiver.vertices:
            if u != v:
                assert phi[(u, v)] in (0, 1)


def test_decompose_zero_and_ambient_segment():
    quiver = make_quiver(SEGMENT)
    p = 2
    assert qv.decompose(zero_rep(quiver, p), quiver) == []
    summands = qv.decompose(ambient(quiver, p), quiver)
    types = qv.type_multiset(summands, quiver, p)
    assert len(summands) == 2
    assert all(t.is_projective(quiver) for t in types)
    assert {t.root for t in types} == set(quiver.vertices)


@pytest.mark.parametrize("vertices", [SEGMENT, OMEGA3, PATH2, BRANCHED])
def test_decompose_random_reassembly_and_multiplicities(vertices):
    quiver = make_quiver(vertices)
    rng = random.Random(7)
    for p in (2, 3):
        for _ in range(125):
            seeds = []
            for _ in range(rng.randint(0, 3)):
                v = rng.choice(quiver.vertices)
                vec = tuple(rng.randrange(p) for _ in range(quiver.d))
                if not gf.is_zero(vec):
                    seeds.append((v, vec))
            M = qv.generated(quiver, seeds, p)
            summands = qv.decompose(M, quiver)  # reassembly asserted inside
            phi = qv.rank_vector(M, quiver)
            for t, mult in qv.type_multiset(summands, quiver, p).items():
                assert qv.multiplicities_from_rank(phi, t, quiver) == mult


def test_decompose_rejects_dependent_configuration():
    quiver = make_quiver([(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)])
    with pytest.raises(ValueError):
        qv.decompose(ambient(quiver, 2), quiver)


def test_enumerate_zero_dims():
    quiver = make_quiver(SEGMENT)
    reps = list(qv.enumerate_subreps(quiver, 0, 2))
    assert reps == [zero_rep(quiver, 2)]


def test_enumerate_segment_count_against_direct_oracle():
    # direct enumeration over all pairs of lines, filtering closure by hand
    quiver = make_quiver(SEGMENT)
    p = 2
    lines = subspaces(2, 1, p)
    direct = []
    for l0 in lines:
        for l1 in lines:
            ok = True
            for row in l0:
                if not gf.contains(l1, quiver.apply_map((0, 0), (1, 0), row, p), p):
                    ok = False
            for row in l1:
                if not gf.contains(l0, quiver.apply_map((1, 0), (0, 0), row, p), p):
                    ok = False
            if ok:
                direct.append((l0, l1))
    assert len(direct) == 5
    reps = list(qv.enumerate_subreps(quiver, 1, p))
    assert len(reps) == 5
    assert {(M.spaces[(0, 0)], M.spaces[(1, 0)]) for M in reps} == set(direct)


def test_enumerate_count_invariant_under_relabeling():
    # the same chain translated inside the apartment
    a = make_quiver(PATH2)
    b = make_quiver([(0, 0), (0, 1), (0, 2)])
    for p in (2, 3):
        assert len(list(qv.enumerate_subreps(a, 1, p))) == len(
            list(qv.enumerate_subreps(b, 1, p))
        )


def test_enumerate_budget_exceeded():
    quiver = make_quiver(OMEGA3)
    with pytest.raises(qv.BudgetExceeded):
        list(qv.enumerate_subreps(quiver, 1, 3, budget=3))


def test_enumerate_matches_brute_force_product_filter():
    quiver = make_quiver(OMEGA3)
    p = 2
    spaces = subspaces(3, 1, p)
    brute = 0
    for combo in itertools.product(spaces, repeat=3):
        rep = qv.SubRep(p, dict(zip(quiver.vertices, combo)))
        if is_subrep(rep, quiver)[0]:
            brute += 1
    assert brute == len(list(qv.enumerate_subreps(quiver, 1, p)))


def superspaces_in_all(inner, k, n, p):
    """The replaced `gf.superspaces(inner, k, n, p)`: the k-spaces of F_p^n
    through span(inner), lifted from the subspaces of the coordinates that
    are not pivots of inner, in the order of `subspaces`."""
    if k < len(inner):
        return []
    free = [c for c in range(n) if c not in pivot_columns(inner)]
    out = []
    for sub in subspaces(len(free), k - len(inner), p):
        lifted = []
        for row in sub:
            amb = [0] * n
            for x, c in zip(row, free):
                amb[c] = x
            lifted.append(tuple(amb))
        out.append(gf.rref(list(inner) + lifted, p))
    return out


def enumerate_by_closure_test(quiver, dims, p, budget=10_000_000):
    """The enumeration that `enumerate_subreps` replaced: offer every superspace
    of the incoming images in all of F_p^d and keep a candidate when each of
    its rows maps into the chosen out-neighbours' spaces.  Raises
    BudgetExceeded when more than `budget` candidates pass that test."""
    dim_map = {v: dims for v in quiver.vertices} if isinstance(dims, int) else dict(dims)
    arrow_set = set(quiver.arrows)
    order = []
    remaining = set(quiver.vertices)
    while remaining:
        if not order:
            pick = min(remaining)
        else:
            pick = max(
                sorted(remaining),
                key=lambda v: sum(1 for u in order if (u, v) in arrow_set or (v, u) in arrow_set),
            )
        order.append(pick)
        remaining.discard(pick)
    passed = 0

    def assign(idx, chosen):
        nonlocal passed
        if idx == len(order):
            yield qv.SubRep(p, chosen)
            return
        v = order[idx]
        lower_rows = [
            quiver.apply_map(u, v, row, p) for u in chosen if (u, v) in arrow_set for row in chosen[u]
        ]
        for cand in superspaces_in_all(gf.rref(lower_rows, p), dim_map[v], quiver.d, p):
            if all(
                gf.contains(chosen[u], quiver.apply_map(v, u, row, p), p)
                for u in chosen
                if (v, u) in arrow_set
                for row in cand
            ):
                passed += 1
                if passed > budget:
                    raise qv.BudgetExceeded(budget)
                chosen[v] = cand
                yield from assign(idx + 1, chosen)
                del chosen[v]

    yield from assign(0, {})


def bench_config_cases():
    """Every bench configuration at p = 2, 3 and every r; the d = 5 ones at r <= 1."""
    for path in sorted(CONFIGS.glob("*.json")):
        d = Configuration.from_json(path.read_text()).d
        for p in (2, 3):
            for r in range(2 if d == 5 else d + 1):
                yield pytest.param(path.stem, r, p, id=f"{path.stem}-r{r}-p{p}")


@pytest.mark.parametrize("name,r,p", list(bench_config_cases()))
def test_enumerate_subreps_equals_closure_filter_in_order(name, r, p):
    quiver = config_quiver(name)
    assert list(qv.enumerate_subreps(quiver, r, p)) == list(enumerate_by_closure_test(quiver, r, p))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("verts,dims", SIMPLEX_INSTANCES)
def test_enumerate_subreps_equals_closure_filter_on_dimension_vectors(verts, dims, p):
    quiver = make_quiver(verts)
    dim_map = dict(zip(quiver.simplices[0], dims))
    assert list(qv.enumerate_subreps(quiver, dim_map, p)) == list(
        enumerate_by_closure_test(quiver, dim_map, p)
    )


def spaces_offered(quiver, r, p, monkeypatch):
    """How many spaces `enumerate_subreps` offers: the members that
    `gf.superspaces` and `gf.torus_reps` return to it, since one block keeps
    all.  The two are counted on a stand-in for `gf` that only `quiver`
    reads, so the lists `superspaces` takes from `torus_reps` are not."""
    offered = 0

    def counted(kernel):
        def members(*args):
            nonlocal offered
            out = kernel(*args)
            offered += len(out)
            return out

        return members

    kernels = {name: counted(getattr(gf, name)) for name in ("superspaces", "torus_reps")}
    with monkeypatch.context() as patch:
        patch.setattr(qv, "gf", types.SimpleNamespace(**{**vars(gf), **kernels}))
        for _ in qv.enumerate_subreps(quiver, r, p):
            pass
    return offered


@pytest.mark.parametrize("name,r,p", [("triangle-d3", 1, 3), ("branched-d4", 2, 2), ("alcove-d4", 1, 2)])
def test_budget_counts_the_spaces_offered(name, r, p, monkeypatch):
    """Every space offered closes up, so the budget is spent exactly as the
    closure filter spends it on the candidates that pass."""
    quiver = config_quiver(name)
    oracle = list(enumerate_by_closure_test(quiver, r, p))
    offered = spaces_offered(quiver, r, p, monkeypatch)
    assert list(qv.enumerate_subreps(quiver, r, p, budget=offered)) == oracle
    assert list(enumerate_by_closure_test(quiver, r, p, budget=offered)) == oracle
    for budget in (0, 1, offered // 3, offered - 1):
        got, expected = [], []
        with pytest.raises(qv.BudgetExceeded):
            got.extend(qv.enumerate_subreps(quiver, r, p, budget=budget))
        with pytest.raises(qv.BudgetExceeded):
            expected.extend(enumerate_by_closure_test(quiver, r, p, budget=budget))
        assert got == expected


def torus_reps_by_filter(n, k, blocks, p):
    """The replaced whole-Grassmannian step of `_walk`: build every member
    of the Grassmannian and keep those that `gf.torus_rep` keeps."""
    return tuple(
        (space, *kept) for space in subspaces(n, k, p) if (kept := gf.torus_rep(space, blocks, p)) is not None
    )


def walk_within(quiver, r, p, budget, blocks):
    """The (spaces, weight) pairs `_walk` yields within `budget`, then None
    if it exceeds it."""
    out = []
    try:
        for spaces, weight in qv._walk(quiver, r, p, budget, blocks):
            out.append((dict(spaces), weight))
    except qv.BudgetExceeded:
        out.append(None)
    return out


@pytest.mark.parametrize(
    "name,r,p",
    [
        ("triangle-d3", 1, 3), ("alcove-d4", 2, 3), ("alcove-d4", 1, 5), ("branched-d4", 2, 2),
        ("shared-edge-triangles", 1, 3),
    ],
)
def test_walk_with_torus_reps_equals_the_filtered_interval(name, r, p, monkeypatch):
    """Whole Grassmannians from `gf.torus_reps` leave the walk as it was:
    the same points and weights in the same order, from one block and from
    singletons, and the budget exceeded at the same point."""
    quiver = config_quiver(name)
    labellings = [(0,) * quiver.d, tuple(range(quiver.d))]
    budgets = [0, 1, 5, 20, 100, 500, 10_000_000]

    def walks():
        return [walk_within(quiver, r, p, budget, blocks) for blocks in labellings for budget in budgets]

    fast, points = walks(), list(qv.enumerate_subreps(quiver, r, p))
    with monkeypatch.context() as patch:
        patch.setattr(gf, "torus_reps", torus_reps_by_filter)
        assert fast == walks()
        assert points == list(qv.enumerate_subreps(quiver, r, p))


def rank_count_cases():
    """The bench configurations at 0 < r < d and p = 2, 3, 5; the d = 5 ones
    at r = 1 and p <= 3."""
    for path in sorted(CONFIGS.glob("*.json")):
        d = Configuration.from_json(path.read_text()).d
        for p in (2, 3) if d == 5 else (2, 3, 5):
            for r in range(1, 2 if d == 5 else d):
                yield pytest.param(path.stem, r, p, id=f"{path.stem}-r{r}-p{p}")


def class_points(classes):
    return {rank: row.points for rank, row in classes.items()}


@pytest.mark.parametrize("name,r,p", list(rank_count_cases()))
def test_rank_counts_equal_the_enumerated_count(name, r, p):
    quiver = config_quiver(name)
    expected = collections.Counter(qv.rank_vector(M, quiver) for M in qv.enumerate_subreps(quiver, r, p))
    assert class_points(qv.rank_classes(quiver, r, p)) == dict(expected)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("verts,dims", SIMPLEX_INSTANCES)
def test_rank_counts_on_dimension_vectors(verts, dims, p):
    quiver = make_quiver(verts)
    dim_map = dict(zip(quiver.simplices[0], dims))
    expected = collections.Counter(
        qv.rank_vector(M, quiver) for M in qv.enumerate_subreps(quiver, dim_map, p)
    )
    assert class_points(qv.rank_classes(quiver, dim_map, p)) == dict(expected)


def first_point_per_class(quiver, r, p, budget):
    """Oracle: the first point per rank vector that the walk from singleton
    blocks yields, collected apart from the counts."""
    classes = {}
    for spaces, _ in qv._walk(quiver, r, p, budget, tuple(range(quiver.d))):
        rank = qv.rank_vector(qv.SubRep(p, spaces), quiver)
        if rank not in classes:
            classes[rank] = qv.SubRep(p, dict(spaces))
    return classes


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "verts,r",
    list(WEAKLY_INDEPENDENT_INSTANCES.values()) + [(SHARED_EDGE_TRIANGLES, 1)],
    ids=list(WEAKLY_INDEPENDENT_INSTANCES) + ["shared-edge-triangles"],
)
def test_rank_classes_keep_the_first_point_of_each_class(verts, r, p):
    quiver = make_quiver(verts)
    classes = qv.rank_classes(quiver, r, p)
    for rank, row in classes.items():
        assert qv.rank_vector(row.point, quiver) == rank
        assert row.point.dims() == {v: r for v in quiver.vertices}
        assert is_subrep(row.point, quiver) == (True, None)
    oracle = first_point_per_class(quiver, r, p, 10_000_000)
    assert [(rank, row.point) for rank, row in classes.items()] == list(oracle.items())


def fixed_point_cases():
    """The bench configurations at 0 < r < d, the d = 5 ones at r = 1."""
    for path in sorted(CONFIGS.glob("*.json")):
        d = Configuration.from_json(path.read_text()).d
        for r in range(1, 2 if d == 5 else d):
            yield pytest.param(path.stem, r, id=f"{path.stem}-r{r}")


@pytest.mark.parametrize("name,r", list(fixed_point_cases()))
def test_weight_one_points_are_the_torus_fixed_points(name, r):
    """At p >= 3 a point's orbit has size 1 exactly when the torus fixes it,
    that is when every row of every space is a unit vector: so per rank
    vector the weight-1 points of the walk from singleton blocks are the
    monomial points, as many at p = 5 as at p = 3."""
    quiver = config_quiver(name)
    monomial = collections.Counter(
        qv.rank_vector(M, quiver)
        for M in qv.enumerate_subreps(quiver, r, 3)
        if all(row.count(0) == quiver.d - 1 for b in M.spaces.values() for row in b)
    )
    singletons = tuple(range(quiver.d))
    for p in (3, 5):
        fixed = collections.Counter(
            qv.rank_vector(qv.SubRep(p, spaces), quiver)
            for spaces, weight in qv._walk(quiver, r, p, 10_000_000, singletons)
            if weight == 1
        )
        assert fixed == monomial


@pytest.mark.parametrize(
    "name,r", [("triangle-d3", 1), ("alcove-d4", 2), ("branched-d4", 1), ("shared-edge-triangles", 1)]
)
@pytest.mark.parametrize("p", [3, 5])
def test_torus_keeps_sub_representations_and_rank_vectors(name, r, p):
    quiver = config_quiver(name)
    rng = random.Random(p)
    for M in qv.enumerate_subreps(quiver, r, p):
        t = [rng.randrange(1, p) for _ in range(quiver.d)]
        moved = qv.SubRep(
            p,
            {v: gf.rref([tuple(x * s for x, s in zip(row, t)) for row in b], p) for v, b in M.spaces.items()},
        )
        assert is_subrep(moved, quiver)[0]
        assert qv.rank_vector(moved, quiver) == qv.rank_vector(M, quiver)


def raises_budget(run):
    try:
        run()
    except qv.BudgetExceeded:
        return True
    return False


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("name", ["triangle-d3", "alcove-d4", "branched-d4"])
def test_rank_counts_spend_the_budget_of_the_enumeration(name, p, r, monkeypatch, capsys):
    """Each first space spends its orbit's size, so the weighted total is
    the number of spaces the enumeration offers, and `strata --budget`
    exits 2 exactly where the enumeration exceeds it."""
    quiver = config_quiver(name)
    offered = spaces_offered(quiver, r, p, monkeypatch)
    for budget in (offered - 1, offered):
        exceeded = budget < offered
        assert raises_budget(lambda: list(qv.enumerate_subreps(quiver, r, p, budget))) == exceeded
        assert raises_budget(lambda: qv.rank_classes(quiver, r, p, budget)) == exceeded
        path = str(CONFIGS / f"{name}.json")
        code = cli.main(["strata", path, "--r", str(r), "--p", str(p), "--budget", str(budget)])
        assert code == (2 if exceeded else 0)
        capsys.readouterr()


@pytest.mark.parametrize("vertices", [PATH2, BRANCHED])
def test_rank_vector_hull_constancy_and_bounds(vertices):
    from linkedgrass.lattice import convex_hull_pair

    quiver = make_quiver(vertices)
    rng = random.Random(3)
    p = 2
    for _ in range(60):
        seeds = []
        for _ in range(rng.randint(1, 3)):
            v = rng.choice(quiver.vertices)
            vec = tuple(rng.randrange(p) for _ in range(quiver.d))
            if not gf.is_zero(vec):
                seeds.append((v, vec))
        M = qv.generated(quiver, seeds, p)
        phi = qv.rank_vector(M, quiver).as_dict()
        for u in quiver.vertices:
            for v in quiver.vertices:
                if u == v:
                    continue
                assert phi[(u, v)] <= min(phi[(u, u)], phi[(v, v)])
                w = convex_hull_pair(u, v)[1]
                assert phi[(u, v)] == phi[(u, w)]


@pytest.mark.parametrize("vertices", [SEGMENT, OMEGA3, BRANCHED])
def test_rank_vector_determines_type_multiset(vertices):
    quiver = make_quiver(vertices)
    p = 2
    by_phi = {}
    for M in qv.enumerate_subreps(quiver, 1, p):
        multiset = tuple(
            sorted(
                (t.root, tuple(sorted(t.support)), mult)
                for t, mult in qv.type_multiset(qv.decompose(M, quiver), quiver, p).items()
            )
        )
        by_phi.setdefault(qv.rank_vector(M, quiver), set()).add(multiset)
    # same rank vector, same multiset; distinct rank vectors, distinct multisets
    assert all(len(m) == 1 for m in by_phi.values())
    flattened = [next(iter(m)) for m in by_phi.values()]
    assert len(set(flattened)) == len(flattened)


def test_deform_step_none_iff_projective():
    quiver = make_quiver(SEGMENT)
    p = 2
    projective = qv.generated(quiver, [((0, 0), (1, 1)), ((1, 0), (1, 1))], p)
    assert qv.deform_step(projective, quiver) is None
    non_projective = qv.SubRep(
        p, {(0, 0): gf.rref([(1, 0)], p), (1, 0): gf.rref([(0, 1)], p)}
    )
    step = qv.deform_step(non_projective, quiver)
    assert step is not None
    before = qv.rank_vector(non_projective, quiver)
    after = qv.rank_vector(step.rep, quiver)
    assert before.leq(after) and before != after
    assert step.rep.dims() == non_projective.dims()
    expected = {k: v + step.increment.get(k, 0) for k, v in before.as_dict().items()}
    assert after.as_dict() == expected


# Two points of locally weakly independent configurations at p = 2 whose
# dimension vectors are not constant: (configuration, generating seeds,
# dimension per vertex).  On both, the first candidate of `deform_step`
# replaces the summand rooted at the class shared by the edge and the leaf,
# and its step drops the leaf's dimension from 3 to 2 (ROADMAP direction 13).
DEFORM_STEP_MISSES = {
    "three-edges": (
        [(0, 1, 1, 0), (0, 1, 1, 1), (1, 1, 2, 0), (2, 1, 2, 0)],
        [
            ((0, 1, 1, 0), (1, 0, 1, 0)),
            ((0, 1, 1, 0), (0, 1, 1, 1)),
            ((0, 1, 1, 1), (1, 0, 0, 0)),
            ((1, 1, 2, 0), (0, 1, 0, 0)),
        ],
        {(0, 1, 1, 0): 2, (0, 1, 1, 1): 3, (1, 1, 2, 0): 2, (2, 1, 2, 0): 2},
    ),
    "two-edges": (
        [(0, 0, 1, 0), (0, 0, 1, 1), (1, 0, 2, 0)],
        [
            ((0, 0, 1, 0), (1, 0, 1, 0)),
            ((1, 0, 2, 0), (0, 0, 0, 1)),
            ((0, 0, 1, 0), (1, 1, 0, 1)),
            ((0, 0, 1, 1), (1, 0, 0, 0)),
        ],
        {(0, 0, 1, 0): 2, (0, 0, 1, 1): 3, (1, 0, 2, 0): 2},
    ),
}


@pytest.mark.xfail(strict=True, raises=InvariantError, reason="deform_step misses its dimension vector (direction 13)")
@pytest.mark.parametrize("name", sorted(DEFORM_STEP_MISSES))
def test_deform_step_keeps_a_dimension_vector_that_is_not_constant(name):
    verts, seeds, dims = DEFORM_STEP_MISSES[name]
    quiver = make_quiver(verts)
    assert quiver.is_weakly_independent
    M = qv.generated(quiver, seeds, 2)
    assert {v: len(M.spaces[v]) for v in quiver.vertices} == dims
    step = qv.deform_step(M, quiver)
    before, after = qv.rank_vector(M, quiver), qv.rank_vector(step.rep, quiver)
    assert step.rep.dims() == M.dims()
    assert before.leq(after) and before != after


def leq_by_dicts(a, b):
    """The body `RankVector.leq` had before it compared entries by position."""
    mine = dict(a.entries)
    theirs = dict(b.entries)
    return all(mine[k] <= theirs[k] for k in mine)


@pytest.mark.parametrize("name, r", [("alcove-d4", 2), ("branched-d4", 2), ("path-d3", 1), ("shared-edge-triangles", 1)])
def test_rank_vector_leq_matches_the_dict_oracle(name, r):
    # the table's ranks share their pair objects; the walk's build their own
    quiver = config_quiver(name)
    ranks = [s.rank for s in adm.strata(quiver, r)] + list(qv.rank_classes(quiver, r, 2))
    for a, b in itertools.product(ranks, repeat=2):
        assert a.leq(b) == leq_by_dicts(a, b)


def test_rank_vector_leq_rejects_different_pair_lists():
    a = qv.rank_vector(ambient(make_quiver(OMEGA3), 2), make_quiver(OMEGA3))
    b = qv.rank_vector(ambient(make_quiver(BRANCHED), 2), make_quiver(BRANCHED))
    swapped = qv.RankVector(a.entries[1:] + a.entries[:1])
    for x, y in [(a, b), (b, a), (a, swapped), (swapped, a)]:
        with pytest.raises(InvariantError, match="rank vectors"):
            x.leq(y)


def test_deform_chain_terminates_within_bound():
    quiver = make_quiver(OMEGA3)
    p = 2
    classes = {}
    for M in qv.enumerate_subreps(quiver, 1, p):
        classes.setdefault(qv.rank_vector(M, quiver), M)
    bound = quiver.d * len(quiver.vertices) ** 2
    for phi, M in classes.items():
        current, steps = M, 0
        while True:
            step = qv.deform_step(current, quiver)
            if step is None:
                break
            current = step.rep
            steps += 1
            assert steps <= bound
        top = qv.rank_vector(current, quiver)
        assert phi.leq(top)


def test_deform_chain_rejects_a_step_that_does_not_raise_the_ranks(monkeypatch):
    quiver = make_quiver(OMEGA3)
    classes = {}
    for M in qv.enumerate_subreps(quiver, 1, 2):
        classes.setdefault(qv.rank_vector(M, quiver), M)
    phi, target = next((a, b) for a in classes for b in classes if a != b and a.leq(b))
    # a step that keeps the rank vector would never reach the target
    monkeypatch.setattr(qv, "deform_step", lambda rep, quiver, target, phi: qv.DeformStep(rep, None, None, {}, phi))
    with pytest.raises(InvariantError, match="did not raise the rank vector"):
        qv.deform_chain(classes[phi], quiver, target)


def extend_partial(quiver, partial, r, p):
    """Extend r-dimensional spaces on a vertex subset to a full r-dim subrep,
    or None exactly when some pullback space has dimension below r.  No
    report reads it, so it lives here, checked against the enumeration."""
    quiver.require_weakly_independent()
    if not partial:
        raise ValueError("empty index set")
    for v, basis in partial.items():
        if len(basis) != r:
            raise ValueError(f"partial space at {v} must have dimension {r}")
    pulled = {}
    for u in quiver.vertices:
        space = quiver.unit
        for v, basis in partial.items():  # the map u -> u is the identity
            space = gf.intersect(space, quiver.pullback(u, v, basis, p), p)
        if len(space) < r:
            return None
        pulled[u] = space

    while True:
        oversized = [u for u in quiver.vertices if len(pulled[u]) > r]
        if not oversized:
            break
        pair = None
        for u2 in sorted(oversized):
            for u1 in quiver.in_arrows[u2]:
                if len(pulled[u1]) == r:
                    pair = (u1, u2)
                    break
            if pair:
                break
        if pair is None:
            raise InvariantError("no shrinkable vertex with an exact in-neighbour")
        _, u2 = pair
        w_rows = []
        for u in quiver.in_arrows[u2]:
            for row in pulled[u]:
                w_rows.append(quiver.apply_map(u, u2, row, p))
        w_space = gf.rref(w_rows, p)
        if len(w_space) > r:
            raise InvariantError("incoming image space exceeded the target dimension")
        extra = gf.complement(w_space, pulled[u2], p)[: r - len(w_space)]
        pulled[u2] = gf.rref(w_space + extra, p)

    result = qv.SubRep(p, pulled)
    ok, witness = is_subrep(result, quiver)
    if not ok:
        raise InvariantError(f"extension failed closure at arrow {witness}")
    for v, basis in partial.items():
        if result.spaces[v] != gf.rref(basis, p):
            raise InvariantError(f"extension changed the given space at {v}")
    return result


def test_extend_partial_identity_and_agreement():
    quiver = make_quiver(OMEGA3)
    p = 3
    for M in itertools.islice(qv.enumerate_subreps(quiver, 1, p), 10):
        ext = extend_partial(quiver, dict(M.spaces), 1, p)
        assert ext == M


def test_extend_partial_existence_oracle():
    quiver = make_quiver(OMEGA3)
    p = 2
    verts = quiver.vertices
    reps = list(qv.enumerate_subreps(quiver, 1, p))
    for s0 in subspaces(3, 1, p):
        for s2 in subspaces(3, 1, p):
            partial = {verts[0]: s0, verts[2]: s2}
            ext = extend_partial(quiver, partial, 1, p)
            exists = any(
                M.spaces[verts[0]] == s0 and M.spaces[verts[2]] == s2 for M in reps
            )
            assert (ext is not None) == exists
            if ext is not None:
                assert ext.spaces[verts[0]] == s0 and ext.spaces[verts[2]] == s2
                assert is_subrep(ext, quiver) == (True, None)


@pytest.mark.parametrize("name", ["alcove-d4-r2", "branched-d4-r2"])
def test_extend_partial_r2_existence_oracle(name):
    # at r = 2 the greedy completion is cut short of the full complement
    vertices, r = WEAKLY_INDEPENDENT_INSTANCES[name]
    quiver = make_quiver(vertices)
    p = 2
    verts = quiver.vertices
    reps = list(qv.enumerate_subreps(quiver, r, p))
    for idx in [(0,), (1,), (2,), (3,), (0, 2)]:
        realized = {tuple(M.spaces[verts[i]] for i in idx) for M in reps}
        for spaces in itertools.product(subspaces(quiver.d, r, p), repeat=len(idx)):
            partial = {verts[i]: s for i, s in zip(idx, spaces)}
            ext = extend_partial(quiver, partial, r, p)
            assert (ext is not None) == (spaces in realized)
            if ext is not None:
                assert ext.dims() == {v: r for v in verts}
                assert all(ext.spaces[v] == s for v, s in partial.items())
                assert is_subrep(ext, quiver) == (True, None)


def test_extend_partial_kernel_seed():
    quiver = make_quiver(SEGMENT)
    p = 2
    # a line inside the kernel of the outgoing map extends
    partial = {(0, 0): gf.rref([(1, 0)], p)}
    ext = extend_partial(quiver, partial, 1, p)
    assert ext is not None and ext.spaces[(0, 0)] == gf.rref([(1, 0)], p)


def test_independence_gates_reject_dependent_configurations():
    quiver = make_quiver(SHARED_EDGE_TRIANGLES)
    assert not quiver.is_weakly_independent
    M = next(qv.enumerate_subreps(quiver, 1, 2))
    v = quiver.vertices[0]
    message = "not locally weakly independent"
    with pytest.raises(ValueError, match=message):
        qv.decompose(M, quiver)
    with pytest.raises(ValueError, match=message):
        qv.deform_step(M, quiver)
    with pytest.raises(ValueError, match=message):
        extend_partial(quiver, {v: M.spaces[v]}, 1, 2)


def test_independence_is_decided_once_per_quiver(monkeypatch):
    check = independence.weakly_independent
    calls = []
    monkeypatch.setattr(independence, "weakly_independent", lambda q: calls.append(q) or check(q))
    quivers = [make_quiver(OMEGA3), make_quiver(PATH2)]
    chains = 0
    for quiver in quivers:
        classes = {}
        for M in qv.enumerate_subreps(quiver, 1, 2):
            classes.setdefault(qv.rank_vector(M, quiver), M)
            qv.decompose(M, quiver)
        for phi, M in classes.items():
            for target in classes:
                if phi != target and phi.leq(target):
                    qv.deform_chain(M, quiver, target)
                    chains += 1
    assert chains > 0 and calls == quivers


def all_summand_types_oracle(quiver):
    """The builder `Quiver.summand_types` replaced, from the `admissible` module."""
    types = []
    everything = frozenset(quiver.vertices)
    for v in quiver.vertices:
        types.append(qv.SummandType(v, everything))
        for cycle in quiver.cycles_at(v):
            n = len(cycle) - 1
            hang = qv._hang_positions(quiver, cycle)
            for m in range(1, n + 1):
                prev_supp = quiver.trans[(v, cycle[m - 1])].support
                this_supp = quiver.trans[(v, cycle[m])].support
                if not (prev_supp - this_supp):
                    continue  # no vector dies exactly at position m
                support = frozenset(w for w in quiver.vertices if hang[w] < m)
                types.append(qv.SummandType(v, support))
    return types


def test_summand_types_match_old_builder_on_configs():
    assert len(CONFIG_NAMES) == 12
    for name in CONFIG_NAMES:
        quiver = config_quiver(name)
        assert list(quiver.summand_types) == all_summand_types_oracle(quiver)
        assert quiver.summand_types is quiver.summand_types


def death_data_oracle(quiver, t):
    """The per-call `_death_data` that `Quiver.death_data` replaced."""
    hits = []
    for cycle in quiver.cycles_at(t.root):
        m = next((i for i, w in enumerate(cycle) if w not in t.support), None)
        if m is not None:
            assert not any(cycle[j] in t.support for j in range(m, len(cycle)))
            hits.append((cycle, m))
    assert len(hits) == 1
    return hits[0]


def test_death_data_match_old_derivation_on_configs():
    checked = 0
    for name in CONFIG_NAMES:
        quiver = config_quiver(name)
        if not quiver.is_weakly_independent:
            continue
        types = [t for t in quiver.summand_types if not t.is_projective(quiver)]
        assert quiver.death_data == {t: death_data_oracle(quiver, t) for t in types}
        assert quiver.death_data is quiver.death_data
        phi = qv.rank_vector(qv.generated(quiver, [(quiver.vertices[0], quiver.unit[0])], 2), quiver)
        for t in quiver.summand_types:
            assert qv.multiplicities_from_rank(phi, t, quiver) == qv.multiplicities_from_rank(phi.as_dict(), t, quiver)
        checked += 1
    assert checked > 0


def types_from_rank_oracle(phi, quiver):
    """The body `types_from_rank` had before `Quiver.rank_forms`, after
    the kernel bound read from the transitions: every multiplicity from
    `multiplicities_from_rank`, then the ranks the multiset predicts
    compared with phi."""
    ranks = phi.as_dict()
    if any(ranks[(u, u)] - ranks[(u, w)] > quiver.d - len(quiver.trans[(u, w)].support) for u, w in quiver.arrows):
        return None
    types = {t: qv.multiplicities_from_rank(ranks, t, quiver) for t in quiver.summand_types}
    if min(types.values()) < 0:
        return None
    types = {t: m for t, m in types.items() if m}
    predicted = dict.fromkeys(ranks, 0)
    for t, m in types.items():
        for u in t.support:
            for w in t.support:
                if u == w or quiver.factors_through(t.root, u, w):
                    predicted[(u, w)] += m
    return types if predicted == ranks else None


def test_types_from_rank_matches_old_body_on_labels_and_perturbations():
    # every stratum label of the 11 weakly independent configurations at every
    # r, and each label moved by +1 or -1 at each entry in turn
    from linkedgrass import admissible

    vectors, realizable = 0, 0
    for name in CONFIG_NAMES:
        quiver = config_quiver(name)
        if not quiver.is_weakly_independent:
            assert name == "shared-edge-triangles"
            continue
        for r in range(1, quiver.d):
            for label in {s.rank for s in admissible.strata(quiver, r)}:
                entries = list(label.entries)
                moved = [
                    qv.RankVector(tuple(entries[:i] + [(pair, value + step)] + entries[i + 1 :]))
                    for i, (pair, value) in enumerate(entries)
                    for step in (1, -1)
                ]
                for phi in [label, *moved]:
                    types = qv.types_from_rank(phi, quiver)
                    assert types == types_from_rank_oracle(phi, quiver)
                    vectors += 1
                    realizable += types is not None
    assert (vectors, realizable) == (30211, 2991)


# (rows, nonzeros) of C: none on one simplex, where the multiset always
# reproduces the ranks; the glued configurations check some pairs
CHECK_ROWS = {"branched-d4": (4, 8), "branched-d5": (4, 8), "path-d2": (2, 4), "path-d3": (2, 4)}


def test_rank_forms_check_rows_and_multiplicities_on_configs():
    rng = random.Random(21)
    checked = 0
    for name in CONFIG_NAMES:
        quiver = config_quiver(name)
        if not quiver.is_weakly_independent:
            continue
        forms, checks = quiver.rank_forms
        assert quiver.rank_forms is quiver.rank_forms
        assert (len(checks), sum(map(len, checks))) == CHECK_ROWS.get(name, (0, 0))
        assert [t for t, _ in forms] == list(quiver.summand_types)
        pairs = [(u, v) for u in quiver.vertices for v in quiver.vertices]
        for _ in range(20):  # A is linear: its rows agree with the formula anywhere
            x = [rng.randint(-3, 6) for _ in pairs]
            for t, row in forms:
                assert sum(c * x[j] for j, c in row) == qv.multiplicities_from_rank(dict(zip(pairs, x)), t, quiver)
        checked += 1
    assert checked == 11


def test_kernel_bounds_read_each_arrow_and_its_tail():
    for name in CONFIG_NAMES:
        quiver = config_quiver(name)
        pairs = quiver.pair_plan.pairs
        assert quiver.kernel_bounds is quiver.kernel_bounds
        assert [(pairs[uu], pairs[uw], room) for uu, uw, room in quiver.kernel_bounds] == [
            ((u, u), (u, w), quiver.d - len(quiver.trans[(u, w)].support)) for u, w in quiver.arrows
        ]


def test_subrep_json_roundtrip():
    quiver = make_quiver(SEGMENT)
    M = qv.generated(quiver, [((0, 0), (1, 1))], 3)
    assert qv.SubRep.from_json(M.to_json()) == M


@pytest.mark.parametrize("p", [2, 3, 5])
def test_single_vector_rep_is_one_dimensional_on_its_support(p):
    names = sorted(path.stem for path in CONFIGS.glob("*.json"))
    assert len(names) == 12
    rng = random.Random(f"single/{p}")
    for name in names:
        quiver = config_quiver(name)
        for _ in range(40):
            v = rng.choice(quiver.vertices)
            x = tuple(rng.randrange(p) for _ in range(quiver.d))
            if gf.is_zero(x):
                continue
            support = qv.support_of_generated(quiver, v, x, p)
            dims = qv.generated(quiver, [(v, x)], p).dims()
            assert dims == {w: int(w in support) for w in quiver.vertices}, (name, v, x)


SABOTAGE = """
    import sys
    from linkedgrass import quiver as qv
    from linkedgrass.lattice import configuration

    print("optimize", sys.flags.optimize)
    split = qv._split_single_generators
    if sys.argv[1] == "drop":
        qv._split_single_generators = lambda *args: split(*args)[1:]
    else:
        qv._split_single_generators = lambda *args: split(*args) * 2
    quiver = qv.Quiver(configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0)]))
    try:
        qv.decompose(qv.SubRep(2, {v: quiver.unit for v in quiver.vertices}), quiver)
    except AssertionError as exc:
        print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize(
    "mode, message",
    [("drop", "failed to reassemble"), ("duplicate", "summands are not independent")],
)
def test_decompose_postconditions_survive_python_O(mode, message):
    src = Path(qv.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(SABOTAGE), mode],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.startswith("optimize 1\nInvariantError decomposition ")
    assert message in result.stdout


KILL_NOTHING = """
    import sys
    import traceback
    from linkedgrass import gf, independence
    from linkedgrass import quiver as qv
    from linkedgrass.lattice import configuration

    print("optimize", sys.flags.optimize)
    gf.vanishing_on = lambda basis, coords, p: gf.rref(basis, p)  # every map kills everything
    quiver = qv.Quiver(configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0)]))
    try:
        qv._split_single_generators(quiver, quiver.vertices[0], quiver.unit, 2)
    except AssertionError as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        print(type(exc).__name__, frame.name, exc)
"""


def test_split_check_survives_python_O():
    src = Path(qv.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(KILL_NOTHING)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    assert result.stdout == (
        "optimize 1\n"
        "InvariantError _split_single_generators split vector landed in the kept kernel sum\n"
    )


NO_UNIQUE_ENTRY = """
    import sys
    from linkedgrass import quiver as qv
    from linkedgrass.lattice import configuration

    print("optimize", sys.flags.optimize)
    quiver = qv.Quiver(configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0)]))
    quiver.factors_through = lambda u, k, v: True  # every simplex vertex is an entry
    try:
        quiver.entry_vertex(quiver.vertices[2], quiver.vertices[:2])
    except AssertionError as exc:
        print(type(exc).__name__, exc)
"""


def test_entry_vertex_check_survives_python_O():
    src = Path(qv.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(NO_UNIQUE_ENTRY)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    assert result.stdout.startswith("optimize 1\nInvariantError entry vertex into ")
    assert "not unique" in result.stdout


def map_image(quiver, u, v, rows, p):
    """Rref image of the rows under the map u -> v: project, then eliminate."""
    return gf.rref([quiver.apply_map(u, v, row, p) for row in rows], p)


def rank_vector_oracle(M, quiver):
    """The per-pair path `rank_vector` replaced: project and re-eliminate."""
    data = {}
    for u in quiver.vertices:
        for v in quiver.vertices:
            basis = M.spaces[u]
            data[(u, v)] = len(basis) if u == v else len(map_image(quiver, u, v, basis, M.p))
    return qv.RankVector.from_dict(data)


def rank_vector_row_scan(M, quiver):
    """The per-pair scan `rank_vector` replaced by memoised rows: for every
    pair (u, v), count the rows of the basis at u pivoting in the support
    and eliminate the other rows meeting it."""
    data = {}
    for u in quiver.vertices:
        rows = [(row, sum(1 << k for k, x in enumerate(row) if x)) for row in M.spaces[u]]
        for v in quiver.vertices:
            support = quiver.masks[(u, v)]
            rank = 0
            rest = []
            for row, nonzero in rows:
                if nonzero & -nonzero & support:
                    rank += 1
                elif nonzero & support:
                    rest.append(row)
            if len(rest) > 1:
                coords = quiver.coords[(u, v)]
                rest = gf.rref([tuple(row[k] for k in coords) for row in rest], M.p)
            data[(u, v)] = rank + len(rest)
    return qv.RankVector.from_dict(data)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("name", ["triangle-d3", "alcove-d4", "branched-d4", "shared-edge-triangles"])
def test_rank_vector_matches_row_scan_on_grassmannian_points(name, r, p):
    quiver = config_quiver(name)
    points = 0
    for M in qv.enumerate_subreps(quiver, r, p):
        assert qv.rank_vector(M, quiver) == rank_vector_row_scan(M, quiver)
        points += 1
    assert points > 0


def elimination_cases(M, quiver):
    """Pairs where two or more rows pivot outside the support and meet it,
    split by whether those rows stay independent on the support."""
    independent = dependent = 0
    for (u, v), coords in quiver.coords.items():
        if u == v:
            continue
        pivots = pivot_columns(M.spaces[u])
        rest = [
            row for row, c in zip(M.spaces[u], pivots)
            if c not in coords and any(row[k] for k in coords)
        ]
        if len(rest) > 1:
            rank = len(map_image(quiver, u, v, rest, M.p))
            independent += rank == len(rest)
            dependent += rank < len(rest)
    return independent, dependent


def test_rank_vector_matches_map_image_on_grassmannian_points():
    instances = [
        (name, r) for name in ("alcove-d4", "branched-d4", "triangle-d3") for r in (1, 2)
    ] + [("shared-edge-triangles", 1)]
    points = independent = dependent = 0
    for name, r in instances:
        quiver = config_quiver(name)
        for p in (2, 3, 5):
            for M in qv.enumerate_subreps(quiver, r, p):
                assert qv.rank_vector(M, quiver) == rank_vector_oracle(M, quiver)
                i, d = elimination_cases(M, quiver)
                independent += i
                dependent += d
                points += 1
    assert points == 16_543
    assert independent > 0 and dependent > 0


@pytest.mark.parametrize("name", ["alcove-d5", "branched-d5", "face-d5"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_vector_matches_map_image_on_generated_reps(name, p):
    quiver = config_quiver(name)
    rng = random.Random(f"rank/{name}/{p}")
    dependent = 0
    for _ in range(80):
        seeds = [
            (rng.choice(quiver.vertices), tuple(rng.randrange(p) for _ in range(quiver.d)))
            for _ in range(rng.randint(0, 5))
        ]
        M = qv.generated(quiver, seeds, p)
        assert qv.rank_vector(M, quiver) == rank_vector_oracle(M, quiver)
        for (u, v), coords in quiver.coords.items():
            assert gf.project(M.spaces[u], coords, p) == map_image(quiver, u, v, M.spaces[u], p)
        dependent += elimination_cases(M, quiver)[1]
    assert dependent > 0


def nonzero_vectors(basis, p):
    """Every nonzero vector of span(basis), the last coefficient varying fastest."""
    if not basis:
        return []
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = (0,) * len(basis[0])
        for c, row in zip(coeffs, basis):
            v = gf.vec_add(v, gf.vec_scale(c, row, p), p)
        if not gf.is_zero(v):
            out.append(v)
    return out


def deform_step_search(M, quiver, target=None):
    """The search `deform_step` replaced: per candidate, try eps_R + t * eta
    for eta = base_eta + kappa over the kernel, kappa = 0 first, and t over F_p*."""
    summands = qv.decompose(M, quiver)
    p = M.p
    if all(s.type_in(quiver, p).is_projective(quiver) for s in summands):
        return None
    phi = qv.rank_vector(M, quiver).as_dict()
    candidates = qv._deform_candidates(quiver, [(s, s.type_in(quiver, p)) for s in summands])
    for repl, donor, cycle, a_r, old_len, rel_start, rel_end in candidates:
        n = len(cycle) - 1
        root = cycle[a_r]
        if repl.root != root:
            continue
        donor_entry = cycle[(a_r + rel_start) % (n + 1)]
        donor_vec = donor.vector
        if donor.root != donor_entry:
            donor_vec = quiver.apply_map(donor.root, donor_entry, donor.vector, p)
        if gf.is_zero(donor_vec):
            continue
        base_eta = quiver.apply_map(root, donor_entry, donor_vec, p)
        if base_eta != vec(donor_vec, p):
            continue
        support = quiver.coords[(root, donor_entry)]
        kernel = tuple(e for k, e in enumerate(quiver.unit) if k not in support)
        predicted = qv._predict_increment(quiver, cycle, a_r, rel_start, rel_end, old_len)
        others = [(s.root, s.vector) for s in summands if s is not repl]
        for kappa in [()] + nonzero_vectors(kernel, p):
            eta = gf.vec_add(base_eta, kappa, p) if kappa else base_eta
            for t in range(1, p):
                new_vec = gf.vec_add(repl.vector, gf.vec_scale(t, eta, p), p)
                candidate = qv.generated(quiver, others + [(root, new_vec)], p)
                if candidate.dims() != M.dims():
                    continue
                new_phi = qv.rank_vector(candidate, quiver).as_dict()
                if new_phi != {k: phi[k] + predicted.get(k, 0) for k in phi}:
                    continue
                if target is not None and not all(new_phi[k] <= target.as_dict()[k] for k in new_phi):
                    continue
                rank = qv.RankVector.from_dict(new_phi)
                return qv.DeformStep(candidate, repl, (root, new_vec), predicted, rank)
    raise qv.DeformationError("no validating deformation found for a non-projective point")


def deform_outcome(step, M, quiver, target=None):
    try:
        return step(M, quiver, target)
    except qv.DeformationError:
        return "DeformationError"


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", sorted(WEAKLY_INDEPENDENT_INSTANCES))
def test_deform_step_matches_search_oracle(name, p):
    verts, r = WEAKLY_INDEPENDENT_INSTANCES[name]
    quiver = make_quiver(verts)
    classes = {}
    for M in qv.enumerate_subreps(quiver, r, p):
        classes.setdefault(qv.rank_vector(M, quiver), M)
    errors = 0
    for phi, M in classes.items():
        # target phi itself admits no rank-raising step: DeformationError
        for target in [None] + [phi2 for phi2 in classes if phi.leq(phi2)]:
            got = deform_outcome(qv.deform_step, M, quiver, target)
            assert got == deform_outcome(deform_step_search, M, quiver, target), (phi, target)
            errors += got == "DeformationError"
    assert errors > 0


def dying_vector_scan(quiver, v, work, p):
    """The scan `_dying_vector` replaced: every nonzero vector of each kernel."""
    for cycle in quiver.cycles_at(v):
        prev_kernel = ()
        for m in range(1, len(cycle)):
            kernel_m = gf.vanishing_on(work, quiver.coords[(v, cycle[m])], p)
            for eps in nonzero_vectors(kernel_m, p):
                if not gf.contains(prev_kernel, eps, p):
                    return eps, cycle, m
            prev_kernel = kernel_m
    return None


@pytest.mark.parametrize("name", sorted(WEAKLY_INDEPENDENT_INSTANCES))
def test_split_vector_matches_scan_oracle(monkeypatch, name):
    verts, r = WEAKLY_INDEPENDENT_INSTANCES[name]
    quiver = make_quiver(verts)
    found, closed_form = [], qv._dying_vector

    def checked(*args):
        got = closed_form(*args)
        assert got == dying_vector_scan(*args)
        found.append(got is not None)
        return got

    monkeypatch.setattr(qv, "_dying_vector", checked)
    rng = random.Random(f"split/{name}")
    for p in (2, 3):
        for M in qv.enumerate_subreps(quiver, r, p):
            qv.decompose(M, quiver)
        # random spaces too: on the branched instances some kernel gains two
        # or more rows at once, which no seed space of decompose does here
        for _ in range(200):
            rows = [tuple(rng.randrange(p) for _ in range(quiver.d)) for _ in range(quiver.d)]
            checked(quiver, rng.choice(quiver.vertices), gf.rref(rows, p), p)
    assert any(found)


NO_INCREMENT = """
    import sys
    import traceback
    from linkedgrass import gf
    from linkedgrass import quiver as qv
    from linkedgrass.lattice import configuration

    print("optimize", sys.flags.optimize)
    qv._predict_increment = lambda *args: {}  # predicts no rank gain
    quiver = qv.Quiver(configuration([(0, 0), (1, 0)]))
    M = qv.SubRep(2, {(0, 0): gf.rref([(1, 0)], 2), (1, 0): gf.rref([(0, 1)], 2)})
    try:
        print("returned", qv.deform_step(M, quiver))
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        print(type(exc).__name__, frame.name, exc)
"""


@pytest.mark.parametrize("name", sorted(WEAKLY_INDEPENDENT_INSTANCES))
def test_decomposing_again_misses_no_kernel_memo(name):
    verts, _ = WEAKLY_INDEPENDENT_INSTANCES[name]
    quiver = make_quiver(verts)
    rng = random.Random(f"memo/{name}")
    seeds = [
        (rng.choice(quiver.vertices), tuple(rng.randrange(3) for _ in range(quiver.d)))
        for _ in range(3)
    ]
    M = qv.generated(quiver, seeds, 3)
    memos = (gf.vanishing_on, gf.project, gf.complement)
    first = qv.decompose(M, quiver)
    before = [memo.cache_info() for memo in memos]
    assert qv.decompose(M, quiver) == first
    after = [memo.cache_info() for memo in memos]
    assert [info.misses for info in after] == [info.misses for info in before]
    assert all(a.hits > b.hits for a, b in zip(after, before))


def test_deform_check_survives_python_O():
    src = Path(qv.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(NO_INCREMENT)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    assert result.stdout == (
        "optimize 1\n"
        "InvariantError deform_step deformation missed its dimension vector or predicted ranks\n"
    )


@st.composite
def generated_reps(draw):
    """A weakly independent instance, p in {2, 3} and the sub-representation
    generated by up to four random (vertex, vector) pairs."""
    verts, _ = WEAKLY_INDEPENDENT_INSTANCES[draw(st.sampled_from(sorted(WEAKLY_INDEPENDENT_INSTANCES)))]
    quiver = make_quiver(verts)
    p = draw(st.sampled_from([2, 3]))
    vector = st.lists(st.integers(0, p - 1), min_size=quiver.d, max_size=quiver.d).map(tuple)
    seeds = draw(st.lists(st.tuples(st.sampled_from(quiver.vertices), vector), max_size=4))
    return quiver, qv.generated(quiver, seeds, p)


@settings(max_examples=400, derandomize=True, database=None)
@given(generated_reps())
def test_decompose_reassembles_and_ranks_give_multiplicities(case):
    quiver, M = case
    summands = qv.decompose(M, quiver)
    assert qv.reassemble(summands, quiver, M.p) == M
    assert qv._decompose_typed(M, quiver) == [(s, s.type_in(quiver, M.p)) for s in summands]
    phi = qv.rank_vector(M, quiver)
    multiset = qv.type_multiset(summands, quiver, M.p)
    for t in quiver.summand_types:
        assert qv.multiplicities_from_rank(phi, t, quiver) == multiset.get(t, 0)
