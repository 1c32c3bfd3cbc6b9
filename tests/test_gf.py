import itertools
import random
from pathlib import Path

import pytest

from linkedgrass import cli, gf
from linkedgrass import quiver as qv
from linkedgrass.lattice import configuration


def random_rows(rng, n, k, p):
    return [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]


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
    subs = gf.subspaces(n, k, p)
    assert len(subs) == gf.gaussian_binomial(n, k, p)
    assert len(set(subs)) == len(subs)


def is_subspace(a, b, p):
    """True iff span(a) is contained in span(b)."""
    return all(gf.contains(b, row, p) for row in a)


def test_superspaces_partition():
    p = 2
    inner = gf.rref([(1, 0, 0, 0)], p)
    sup = gf.superspaces(inner, 2, 4, p)
    assert len(sup) == len({s for s in sup})
    for s in sup:
        assert is_subspace(inner, s, p)
    # every 2-dim space containing inner appears
    expected = [s for s in gf.subspaces(4, 2, p) if is_subspace(inner, s, p)]
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


def test_left_kernel_and_preimage():
    p = 3
    rows = [(1, 0, 2), (2, 0, 1), (0, 0, 0)]
    ker = gf.left_kernel(rows, p)
    for lam in gf.all_vectors(ker, p):
        total = (0, 0, 0)
        for c, row in zip(lam, rows):
            total = gf.vec_add(total, gf.vec_scale(c, row, p), p)
        assert gf.is_zero(total)
    # preimage of a line under a projection
    images = [(1, 0), (0, 0), (0, 1)]
    target = gf.rref([(1, 0)], p)
    pre = gf.preimage(images, target, p)
    for x in gf.all_vectors(pre, p):
        img = (x[0] % p, x[2] % p)
        assert gf.contains(target, img, p)
    assert len(pre) == 2


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
        comp = gf.complement(inner, outer, p)
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
            for basis in gf.subspaces(n, k, p):
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
    assert len(calls) > 1000
