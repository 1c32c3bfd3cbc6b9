import functools
import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkedgrass import admissible as adm
from linkedgrass import weyl
from linkedgrass.admissible import standard_alcove
from linkedgrass.lattice import Configuration, canonicalize, chain_order
from linkedgrass.quiver import Quiver


def rand_elem(rng, d, spread=2):
    sigma = list(range(1, d + 1))
    rng.shuffle(sigma)
    return weyl.WeylElement(tuple(sigma), tuple(rng.randint(-spread, spread) for _ in range(d)))


def iota_pow(d, k):
    """iota^k in closed form: sigma(i) = i + s mod d, trans = (q+1)^s q^(d-s)
    with q, s = divmod(k, d)."""
    q, s = divmod(k, d)
    sigma = tuple((i + s) % d + 1 for i in range(d))
    return weyl.WeylElement(sigma, (q + 1,) * s + (q,) * (d - s))


class CayleyBall:
    """Lazily grown breadth-first ball of W_a around the identity: the
    oracle of word lengths and of the Bruhat order's downsets."""

    def __init__(self, d):
        self.gens = [weyl.simple_reflection(d, i) for i in range(d)]
        e = weyl.identity(d)
        self.length = {e: 0}
        self.frontier = [e]
        self.radius = 0

    def extend_to(self, radius):
        while self.radius < radius and self.frontier:
            nxt = []
            for g in self.frontier:
                for s in self.gens:
                    h = weyl.compose(g, s)
                    if h not in self.length:
                        self.length[h] = self.radius + 1
                        nxt.append(h)
            self.frontier = nxt
            self.radius += 1


@functools.cache
def cayley_ball(d):
    return CayleyBall(d)


def wa_elements(d, max_len):
    """All W_a elements of length at most max_len."""
    ball = cayley_ball(d)
    ball.extend_to(max_len)
    return [g for g, l in ball.length.items() if l <= max_len]


def in_affine(g):
    """Whether g lies in the affine Weyl group W_a: its translation sums to 0."""
    return sum(g.trans) == 0


def iota_decompose(g):
    """The unique w in W_a and exponent k with g = w * iota^k; k is sum(g.trans)."""
    k = sum(g.trans)
    w = weyl.compose(g, iota_pow(g.d, -k))
    assert in_affine(w)
    return w, k


def test_action_examples():
    assert weyl.act(weyl.iota(3), (0, 0, 0)) == (1, 0, 0)
    d = 6
    assert weyl.act(weyl.simple_reflection(d, 0), (0,) * d) == (1, 0, 0, 0, 0, -1)
    assert weyl.act(weyl.identity(4), (3, 1, 4, 1)) == (3, 1, 4, 1)


def test_generator_involutions_and_iota_power():
    for d in (2, 3, 4):
        for i in range(d):
            s = weyl.simple_reflection(d, i)
            assert weyl.compose(s, s) == weyl.identity(d)
        power = weyl.identity(d)
        for _ in range(d):
            power = weyl.compose(power, weyl.iota(d))
        assert power == weyl.WeylElement(tuple(range(1, d + 1)), (1,) * d)


def test_compose_is_left_action():
    rng = random.Random(1)
    for _ in range(1000):
        d = rng.randint(2, 5)
        g, h = rand_elem(rng, d), rand_elem(rng, d)
        a = tuple(rng.randint(-3, 3) for _ in range(d))
        assert weyl.act(weyl.compose(g, h), a) == weyl.act(g, weyl.act(h, a))


def test_group_axioms_random():
    rng = random.Random(2)
    for _ in range(10_000):
        d = rng.randint(2, 6)
        g, h, k = (rand_elem(rng, d) for _ in range(3))
        assert weyl.compose(weyl.compose(g, h), k) == weyl.compose(g, weyl.compose(h, k))
        assert weyl.compose(g, weyl.invert(g)) == weyl.identity(d)
        assert weyl.compose(weyl.invert(g), g) == weyl.identity(d)


def test_iota_decompose():
    assert iota_decompose(weyl.identity(3)) == (weyl.identity(3), 0)
    for d in (2, 3, 4):
        for r in range(1, d):
            w, k = iota_decompose(weyl.translation(tuple([1] * r + [0] * (d - r))))
            assert k == r and sum(w.trans) == 0
    rng = random.Random(3)
    for _ in range(300):
        d = rng.randint(2, 5)
        g = rand_elem(rng, d)
        w, k = iota_decompose(g)
        assert sum(w.trans) == 0
        assert weyl.compose(w, iota_pow(d, k)) == g


def test_lengths():
    assert weyl.length(weyl.identity(4)) == 0
    for d in range(2, 6):
        for i in range(d):
            assert weyl.length(weyl.simple_reflection(d, i)) == 1
        for r in range(1, d):
            assert weyl.length(weyl.translation(tuple([1] * r + [0] * (d - r)))) == r * (d - r)


def bfs_lengths(d, radius):
    """Oracle: word lengths from the breadth-first Cayley ball of W_a."""
    ball = CayleyBall(d)
    ball.extend_to(radius)
    return ball.length


def test_length_of_long_translation():
    # a translation's length is sum_{i<j} |lambda_i - lambda_j|
    assert weyl.length(weyl.translation((3, 0, 0, 0, 0, -3))) == 30
    for d in (2, 3, 4):
        for w, lw in bfs_lengths(d, 7).items():
            if w.sigma == tuple(range(1, d + 1)):
                lam = w.trans
                assert lw == sum(abs(a - b) for i, a in enumerate(lam) for b in lam[i + 1 :])


@pytest.mark.parametrize("d,radius", [(2, 7), (3, 7), (4, 7), (5, 6)])
def test_length_matches_cayley_ball(d, radius):
    for w, lw in bfs_lengths(d, radius).items():
        for k in range(-d - 1, d + 2):
            assert weyl.length(weyl.compose(w, iota_pow(d, k))) == lw, (w, k)


def test_iota_pow_matches_repeated_compose():
    for d in range(2, 7):
        for k in range(-20, 21):
            base = weyl.iota(d) if k >= 0 else weyl.invert(weyl.iota(d))
            power = weyl.identity(d)
            for _ in range(abs(k)):
                power = weyl.compose(power, base)
            assert iota_pow(d, k) == power, (d, k)


@st.composite
def extended_elements(draw):
    d = draw(st.integers(2, 6))
    sigma = draw(st.permutations(range(1, d + 1)))
    trans = draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))
    return weyl.WeylElement(tuple(sigma), tuple(trans))


@st.composite
def affine_elements(draw, d):
    """An element of W_a: a permutation and a translation summing to zero."""
    sigma = draw(st.permutations(range(1, d + 1)))
    trans = draw(st.lists(st.integers(-4, 4), min_size=d - 1, max_size=d - 1))
    return weyl.WeylElement(tuple(sigma), tuple(trans) + (-sum(trans),))


@st.composite
def affine_triples(draw):
    d = draw(st.sampled_from([3, 4]))
    return tuple(draw(affine_elements(d)) for _ in range(3))


@settings(max_examples=300, derandomize=True, database=None)
@given(affine_triples())
def test_affine_weyl_group_axioms(case):
    g, h, k = case
    e = weyl.identity(g.d)
    assert weyl.compose(weyl.compose(g, h), k) == weyl.compose(g, weyl.compose(h, k))
    assert weyl.compose(g, e) == g == weyl.compose(e, g)
    assert weyl.compose(g, weyl.invert(g)) == e == weyl.compose(weyl.invert(g), g)
    assert in_affine(weyl.compose(g, h)) and in_affine(weyl.invert(g))


@settings(max_examples=300, derandomize=True, database=None)
@given(extended_elements(), st.integers(0, 5), st.integers(-8, 8))
def test_length_properties(g, i, k):
    d = g.d
    lg = weyl.length(g)
    assert abs(weyl.length(weyl.compose(g, weyl.simple_reflection(d, i % d))) - lg) == 1
    assert weyl.length(weyl.invert(g)) == lg
    assert weyl.length(weyl.compose(g, iota_pow(d, k))) == lg


def test_coxeter_parity():
    rng = random.Random(4)
    for w in rng.sample(wa_elements(3, 5), 25):
        lw = weyl.length(w)
        for i in range(3):
            assert abs(weyl.length(weyl.compose(w, weyl.simple_reflection(3, i))) - lw) == 1


def reduced_word(g):
    """One reduced word (generator indices) for the W_a-part of g: strip
    the least right descent of its window until none is left."""
    window, word = weyl._window(iota_decompose(g)[0]), []
    while descents := [i for i in range(g.d) if weyl._right_descent(window, i)]:
        weyl._times_simple(window, descents[0])
        word.append(descents[0])
    return tuple(reversed(word))


@pytest.mark.parametrize("d, max_len", [(2, 6), (3, 6), (4, 6), (5, 5)])
def test_reduced_word_is_a_reduced_word_of_the_affine_part(d, max_len):
    for w in wa_elements(d, max_len):
        for k in (0, 1, -2):
            g = weyl.compose(w, iota_pow(d, k))
            word = reduced_word(g)
            product = weyl.identity(d)
            for idx in word:
                product = weyl.compose(product, weyl.simple_reflection(d, idx))
            assert len(word) == weyl.length(g) and product == w


def subword_leq(u, w, d):
    """Independent oracle: u <= w iff u is a product of a subword of a
    reduced word of w."""
    reach = {weyl.identity(d)}
    for idx in reduced_word(w):
        s = weyl.simple_reflection(d, idx)
        reach |= {weyl.compose(x, s) for x in reach}
    return u in reach


def test_bruhat_identity_below_everything():
    for w in wa_elements(3, 4):
        assert weyl.bruhat_leq(weyl.identity(3), w)


def test_bruhat_distinct_iota_components():
    u = weyl.compose(weyl.simple_reflection(3, 1), weyl.iota(3))
    w = weyl.compose(weyl.simple_reflection(3, 1), iota_pow(3, 2))
    assert not weyl.bruhat_leq(u, w)
    assert not weyl.bruhat_leq(w, u)


def test_bruhat_matches_subword_oracle():
    d = 3
    elems = wa_elements(d, 6)
    for u in elems:
        for w in elems:
            assert weyl.bruhat_leq(u, w) == subword_leq(u, w, d)


def reflections(d, kmax):
    """Affine reflections ((i j), k(e_i - e_j)) with |k| <= kmax."""
    out = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            sigma = list(range(1, d + 1))
            sigma[i - 1], sigma[j - 1] = sigma[j - 1], sigma[i - 1]
            for k in range(-kmax, kmax + 1):
                trans = [0] * d
                trans[i - 1], trans[j - 1] = k, -k
                out.append(weyl.WeylElement(tuple(sigma), tuple(trans)))
    return out


DOWNSETS = {}


def downset(w):
    """Oracle: all W_a elements below w in Bruhat order, w included, as the
    downward closure along reflection covers (the search `bruhat_leq` replaced)."""
    if w not in DOWNSETS:
        lw = weyl.length(w)
        down = {w}
        if lw > 0:
            for t in reflections(w.d, lw + 1):
                u = weyl.compose(w, t)
                if weyl.length(u) == lw - 1:
                    down |= downset(u)
        DOWNSETS[w] = frozenset(down)
    return DOWNSETS[w]


def downset_leq(u, w):
    if sum(u.trans) != sum(w.trans):
        return False
    return iota_decompose(u)[0] in downset(iota_decompose(w)[0])


@pytest.mark.parametrize("d,radius", [(2, 7), (3, 5), (4, 4), (5, 3)])
def test_bruhat_matches_downset_oracle(d, radius):
    ball = sorted(wa_elements(d, radius), key=lambda g: (weyl.length(g), g.sigma, g.trans))
    for k in (-1, 0, 1, d, 2 * d + 1):
        elems = [weyl.compose(w, iota_pow(d, k)) for w in ball]
        for u in elems:
            for w in elems:
                assert weyl.bruhat_leq(u, w) == downset_leq(u, w), (u, w)


@pytest.mark.parametrize("d", [3, 4])
def test_bruhat_downset_is_the_ball_filter(d):
    # every u <= w has l(u) <= l(w), so the radius-4 ball holds each downset
    ball = wa_elements(d, 4)
    for w in ball:
        down = weyl.bruhat_downset(w)
        assert down == {u for u in ball if weyl.bruhat_leq(u, w)}
        shift = iota_pow(d, d + 1)
        assert weyl.bruhat_downset(weyl.compose(w, shift)) == {weyl.compose(u, shift) for u in down}


def test_bruhat_cover_lifting():
    # covering pairs differ in length by exactly one
    for w in wa_elements(3, 4):
        lw = weyl.length(w)
        if lw == 0:
            continue
        covers = [
            u
            for t in reflections(3, lw + 1)
            for u in [weyl.compose(w, t)]
            if weyl.length(u) == lw - 1 and weyl.bruhat_leq(u, w)
        ]
        assert covers, f"no covers below {w}"


@functools.cache
def stabilizer_elements(group):
    """Every element of a face stabilizer: its reflections over the pairs
    with constant coordinate difference, saturated by breadth-first search."""
    d, verts = group.d, group.face
    gens = []
    for i, j in combinations(range(d), 2):
        diffs = {x[i] - x[j] for x in verts}
        if len(diffs) == 1:
            c = diffs.pop()
            sigma, trans = list(range(1, d + 1)), [0] * d
            sigma[i], sigma[j] = j + 1, i + 1
            trans[i], trans[j] = c, -c
            gens.append(weyl.WeylElement(tuple(sigma), tuple(trans)))
    elements = frontier = {weyl.identity(d)}
    while frontier:
        frontier = {weyl.compose(g, s) for g in frontier for s in gens} - elements
        elements = elements | frontier
    assert all(weyl.act(g, x) == x for g in elements for x in verts)
    return frozenset(elements)


def test_face_stabilizer_known_orders():
    omega = standard_alcove(4)
    assert len(weyl.face_stabilizer(omega)) == 1
    assert len(weyl.face_stabilizer(omega[:3])) == 2
    assert len(weyl.face_stabilizer([omega[0]])) == factorial(4)


def test_face_stabilizer_block_order_formula():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(2, 4)
        omega = standard_alcove(d)
        size = rng.randint(1, d)
        face = rng.sample(list(omega), size)
        group = weyl.face_stabilizer(face)
        assert len(group) == len(stabilizer_elements(group))


def test_face_stabilizer_exhaustive_no_outside_fixers():
    for d in (3, 4):
        omega = standard_alcove(d)
        for face in (list(omega[:2]), [omega[0]], list(omega[: d - 1])):
            group = weyl.face_stabilizer(face)
            verts = [tuple(v) for v in group.face]
            for w in wa_elements(d, 6):
                fixes = all(weyl.act(w, x) == x for x in verts)
                assert fixes == (w in stabilizer_elements(group))


def test_face_stabilizer_rejects_non_simplex():
    with pytest.raises(ValueError):
        weyl.face_stabilizer([(0, 0), (2, 0)])


def test_double_coset_min_properties():
    rng = random.Random(6)
    d = 3
    omega = standard_alcove(d)
    w1 = weyl.face_stabilizer([omega[0]])
    w2 = weyl.face_stabilizer(omega[:2])
    for _ in range(40):
        g = rand_elem(rng, d, spread=1)
        rep = weyl.double_coset_min(g, w1, w2)
        assert weyl.length(rep) <= weyl.length(g)
        a = rng.choice(sorted(stabilizer_elements(w1), key=str))
        b = rng.choice(sorted(stabilizer_elements(w2), key=str))
        conjugated = weyl.compose(weyl.compose(a, g), b)
        assert weyl.double_coset_min(conjugated, w1, w2) == rep


def double_coset_leq(g, h, w1, w2):
    """Induced Bruhat order on W1 \\ W~ / W2 via minimal representatives."""
    return weyl.bruhat_leq(weyl.double_coset_min(g, w1, w2), weyl.double_coset_min(h, w1, w2))


def test_double_coset_with_trivial_parahorics_is_bruhat():
    d = 3
    omega = standard_alcove(d)
    trivial = weyl.face_stabilizer(omega)
    assert len(trivial) == 1
    elems = wa_elements(d, 4)
    rng = random.Random(7)
    for _ in range(100):
        g, h = rng.choice(elems), rng.choice(elems)
        assert double_coset_leq(g, h, trivial, trivial) == weyl.bruhat_leq(g, h)


def test_double_coset_min_of_product_is_identity():
    d = 3
    omega = standard_alcove(d)
    w1 = weyl.face_stabilizer([omega[0]])
    w2 = weyl.face_stabilizer(omega[:2])
    rng = random.Random(10)
    for _ in range(20):
        a = rng.choice(sorted(stabilizer_elements(w1), key=str))
        b = rng.choice(sorted(stabilizer_elements(w2), key=str))
        g = weyl.compose(a, b)
        assert weyl.double_coset_min(g, w1, w2) == weyl.identity(d)


def test_minmax_length_at_least_min_rep_length():
    d = 3
    omega = standard_alcove(d)
    w1 = weyl.face_stabilizer(omega[:2])
    w2 = weyl.face_stabilizer([omega[0]])
    rng = random.Random(11)
    for _ in range(30):
        g = rand_elem(rng, d, spread=1)
        lo = weyl.length(weyl.double_coset_min(g, w1, w2))
        hi = weyl.length(weyl.minmax_rep(g, w1, w2))
        assert hi >= lo


def test_minmax_rep_with_trivial_left_group():
    d = 3
    omega = standard_alcove(d)
    trivial = weyl.face_stabilizer(omega)
    w2 = weyl.face_stabilizer(omega[:2])
    rng = random.Random(8)
    for _ in range(30):
        g = rand_elem(rng, d, spread=1)
        assert weyl.minmax_rep(g, trivial, w2) == min_coset_rep(g, w2)


def test_double_coset_order_matches_minmax_oracle():
    # the order through minimal representatives agrees with the order read
    # off the maximal-of-minimal representatives
    d = 3
    omega = standard_alcove(d)
    w1 = weyl.face_stabilizer(omega[:2])
    w2 = weyl.face_stabilizer([omega[0]])
    elems = [g for g in wa_elements(d, 4)]
    rng = random.Random(9)
    for _ in range(150):
        g, h = rng.choice(elems), rng.choice(elems)
        via_min = double_coset_leq(g, h, w1, w2)
        via_minmax = weyl.bruhat_leq(
            weyl.minmax_rep(g, w1, w2), weyl.minmax_rep(h, w1, w2)
        )
        assert via_min == via_minmax


def test_element_json_roundtrip():
    g = weyl.WeylElement((2, 3, 1), (1, 0, -1))
    assert weyl.WeylElement.from_json(g.to_json()) == g


def test_bruhat_poset_dot():
    dot = weyl.bruhat_poset_dot(wa_elements(2, 2))
    assert dot.startswith("digraph bruhat {")
    # identity under both generators, each generator under both length-2 words
    assert dot.count("->") == 6


def test_hasse_dot_keeps_only_covers():
    nodes = [1, 2, 3, 4, 6, 12]
    dot = weyl.hasse_dot("div", nodes, [str(n) for n in nodes], lambda a, b: b % a == 0)
    assert dot.splitlines() == [
        "digraph div {",
        '  "1" -> "2";',
        '  "1" -> "3";',
        '  "2" -> "4";',
        '  "2" -> "6";',
        '  "3" -> "6";',
        '  "4" -> "12";',
        '  "6" -> "12";',
        "}",
    ]


def hasse_dot_oracle(name, nodes, labels, leq):
    """The cubic scan `hasse_dot` replaced: per related pair, every third
    node is tested for lying between them."""
    lines = [f"digraph {name} {{"]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if i == j or not leq(a, b):
                continue
            if any(k not in (i, j) and leq(a, c) and leq(c, b) for k, c in enumerate(nodes)):
                continue
            lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines)


CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


@settings(max_examples=200, derandomize=True, database=None)
@given(st.lists(st.integers(1, 24), max_size=9))
def test_hasse_dot_matches_the_cubic_scan_on_divisibility(nodes):
    # repeated values make a preorder: equal nodes lie between each other's covers
    labels = [f"n{i}" for i in range(len(nodes))]
    divides = lambda a, b: b % a == 0
    assert weyl.hasse_dot("div", nodes, labels, divides) == hasse_dot_oracle("div", nodes, labels, divides)


@pytest.mark.parametrize("name, r", [("alcove-d4", 2), ("branched-d4", 2), ("path-d3", 1), ("face-d5", 2)])
def test_hasse_dot_matches_the_cubic_scan_on_stratum_ranks(name, r):
    quiver = Quiver(Configuration.from_json((CONFIGS / f"{name}.json").read_text()))
    ranks = [s.rank for s in adm.strata(quiver, r)]
    labels = [f"s{i}" for i in range(len(ranks))]
    leq = type(ranks[0]).leq
    assert weyl.hasse_dot("hasse", ranks, labels, leq) == hasse_dot_oracle("hasse", ranks, labels, leq)


def test_hasse_dot_matches_the_cubic_scan_on_bruhat_balls():
    nodes = sorted(wa_elements(3, 3), key=lambda g: (weyl.length(g), g.sigma, g.trans))
    labels = [f"{g.sigma}|{g.trans}" for g in nodes]
    expected = hasse_dot_oracle("bruhat", nodes, labels, weyl.bruhat_leq)
    assert weyl.bruhat_poset_dot(nodes) == weyl.hasse_dot("bruhat", nodes, labels, weyl.bruhat_leq) == expected


def double_coset_min_oracle(g, w1, w2):
    """The |W1| * |W2| product scan `double_coset_min` replaced."""
    best, best_len, ties = None, None, 0
    for a in stabilizer_elements(w1):
        ag = weyl.compose(a, g)
        for b in stabilizer_elements(w2):
            h = weyl.compose(ag, b)
            l = weyl.length(h)
            if best_len is None or l < best_len:
                best, best_len, ties = h, l, 1
            elif l == best_len and h != best:
                ties += 1
    assert ties == 1
    return best


def min_coset_rep(g, w2):
    """Unique minimal-length element of the left coset g * W2, by a scan."""
    coset = [weyl.compose(g, b) for b in stabilizer_elements(w2)]
    least = min(map(weyl.length, coset))
    best = [h for h in coset if weyl.length(h) == least]
    assert len(best) == 1
    return best[0]


def minmax_rep_oracle(g, w1, w2):
    """`minmax_rep` over every v in W1, one coset v * g * W2 per v."""
    reps = {min_coset_rep(weyl.compose(v, g), w2) for v in stabilizer_elements(w1)}
    lmax = max(weyl.length(h) for h in reps)
    best = [h for h in reps if weyl.length(h) == lmax]
    assert len(best) == 1
    return best[0]


def oracle_faces(name):
    """Every face of the single simplex of an alcove, or every face shared
    by two maximal simplices of a branched configuration, conjugated onto
    the standard alcove as the gluing keys are."""
    quiver = Quiver(Configuration.from_json((CONFIGS / f"{name}.json").read_text()))
    simplices = [frozenset(s) for s in quiver.simplices]
    if len(simplices) == 1:
        (simplex,) = simplices
        return quiver.d, [f for k in range(1, len(simplex) + 1) for f in combinations(sorted(simplex), k)]
    shared = sorted({tuple(sorted(a & b)) for a, b in combinations(simplices, 2) if a & b})
    return quiver.d, [adm._standard_frame(chain_order(face))[0] for face in shared]


# W1 fixes a standard face F and W2 fixes iota^shift . F: shifted by r in the
# stratum keys, unshifted in the gluing over the shared faces of branched-d5
@pytest.mark.parametrize("shift", range(4))
@pytest.mark.parametrize("name", ["alcove-d4", "alcove-d5", "branched-d5"])
def test_double_coset_scans_match_product_oracle(monkeypatch, name, shift):
    d, faces = oracle_faces(name)
    elements = [
        weyl.compose(w, iota_pow(d, k))
        for w in sorted(wa_elements(d, 4), key=str)
        for k in range(-d, d + 1)
    ]
    # the walk steps on the left by `_simple_times`, on the right by `_times_simple`
    steps, left_step, right_step = [], weyl._simple_times, weyl._times_simple
    monkeypatch.setattr(weyl, "_simple_times", lambda w, a: steps.append(a) or left_step(w, a))
    monkeypatch.setattr(weyl, "_times_simple", lambda w, j: steps.append(j) or right_step(w, j))
    rng = random.Random(f"{name}-{shift}")
    assert max(len(weyl.face_stabilizer(face)) for face in faces) == factorial(d)  # a vertex
    for face in faces:
        w1 = weyl.face_stabilizer(face)
        w2 = weyl.face_stabilizer([canonicalize(weyl.act(iota_pow(d, shift), v)) for v in face])
        # one to eight elements, fewer for larger groups
        for g in rng.sample(elements, max(1, min(8, 2000 // (len(w1) * len(w2))))):
            steps.clear()
            rep = weyl.double_coset_min(g, w1, w2)
            assert len(steps) == weyl.length(g) - weyl.length(rep)
            assert rep == double_coset_min_oracle(g, w1, w2)
            assert weyl.minmax_rep(g, w1, w2) == minmax_rep_oracle(g, w1, w2)


NOT_STANDARD = """
    import sys
    from linkedgrass import weyl

    print("optimize", sys.flags.optimize)
    w1 = weyl.face_stabilizer([(0, 1, 0)])  # fixes a vertex off the standard alcove
    try:
        weyl.double_coset_min(weyl.iota(3), w1, w1)
    except AssertionError as exc:
        print(type(exc).__name__, exc)
"""


def test_simple_indices_are_the_complement_of_the_face_types_once_per_group():
    for d in range(2, 6):
        for k in range(d):
            for rest in combinations(range(1, d), k):
                group = weyl.face_stabilizer([(1,) * i + (0,) * (d - i) for i in (0, *rest)])
                assert group.simple_indices == tuple(j for j in range(d) if j not in (0, *rest))
                assert group.simple_indices is group.simple_indices


def test_non_standard_parahoric_raises_under_python_O():
    src = Path(weyl.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(NOT_STANDARD)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    assert result.stdout == (
        "optimize 1\n"
        "InvariantError parahoric subgroup fixing ((0, 1, 0),) is not standard\n"
    )


@st.composite
def standard_double_cosets(draw):
    """An element and two standard parahorics, each fixing a nonempty set
    of standard-alcove vertices."""
    d = draw(st.integers(2, 4))
    omega = standard_alcove(d)
    sigma = draw(st.permutations(range(1, d + 1)))
    g = weyl.WeylElement(tuple(sigma), tuple(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))))
    faces = [
        [omega[i] for i in draw(st.sets(st.integers(0, d - 1), min_size=1))]
        for _ in range(2)
    ]
    return g, weyl.face_stabilizer(faces[0]), weyl.face_stabilizer(faces[1])


@settings(max_examples=300, derandomize=True, database=None)
@given(standard_double_cosets())
def test_double_coset_min_has_no_descents_in_the_parahorics(case):
    g, w1, w2 = case
    rep = weyl.double_coset_min(g, w1, w2)
    lr = weyl.length(rep)
    simple = [weyl.simple_reflection(g.d, j) for j in range(g.d)]
    assert all(weyl.length(weyl.compose(s, rep)) > lr for s in simple if s in stabilizer_elements(w1))
    assert all(weyl.length(weyl.compose(rep, s)) > lr for s in simple if s in stabilizer_elements(w2))
    assert rep == double_coset_min_oracle(g, w1, w2)


@st.composite
def iota_shifts(draw):
    """An element g, a standard parahoric W, a second element and a power of iota."""
    g, w, _ = draw(standard_double_cosets())
    d = g.d
    sigma = draw(st.permutations(range(1, d + 1)))
    h = weyl.WeylElement(tuple(sigma), tuple(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))))
    return g, h, w, draw(st.integers(-2 * d, 2 * d))


@settings(max_examples=300, derandomize=True, database=None)
@given(iota_shifts())
def test_right_iota_shift_keeps_double_cosets_lengths_and_order(case):
    # iota^k has length 0 and conjugates W onto the stabilizer of iota^k . F
    g, h, w, k = case
    shift, back = iota_pow(g.d, k), iota_pow(g.d, -k)
    w_k = weyl.face_stabilizer([canonicalize(weyl.act(shift, v)) for v in w.face])
    rep = weyl.double_coset_min(g, w, w)
    assert weyl.double_coset_min(weyl.compose(g, back), w, w_k) == weyl.compose(rep, back)
    assert weyl.length(weyl.minmax_rep(weyl.compose(g, back), w, w_k)) == weyl.length(weyl.minmax_rep(g, w, w))
    for u in (rep, h):
        assert weyl.bruhat_leq(weyl.compose(u, shift), weyl.compose(g, shift)) == weyl.bruhat_leq(u, g)
    assert weyl.bruhat_leq(rep, g)


def partition(keys):
    """The classes of indices with equal keys."""
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, set()).add(i)
    return {frozenset(c) for c in classes.values()}


def scan_partition(cosets, group):
    """The classes of h ~ h' iff h' in W h W, listing one double coset per class."""
    classes, left, elements = set(), dict(enumerate(cosets)), stabilizer_elements(group)
    while left:
        h = left[min(left)]
        orbit = {weyl.compose(weyl.compose(a, h), b) for a in elements for b in elements}
        classes.add(frozenset(i for i, x in left.items() if x in orbit))
        left = {i: x for i, x in left.items() if x not in orbit}
    return classes


def test_standard_position_keys_match_scan_partition_on_configs():
    # the faces of each simplex are classed over its stabilizer, and the
    # faces of two simplices glued over the stabilizer of their shared face
    paths, pairs = sorted(CONFIGS.glob("*.json")), 0
    assert len(paths) == 12
    for path in paths:
        quiver = Quiver(Configuration.from_json(path.read_text()))
        simplices = [chain_order(s) for s in quiver.simplices]
        frames = [(s, [s]) for s in simplices] + [
            (chain_order(set(a) & set(b)), [a, b]) for a, b in combinations(simplices, 2) if set(a) & set(b)
        ]
        for face, owners in frames:
            for r in range(1, quiver.d):
                cosets = [f.coset for owner in owners for f in adm.admissible_faces(owner, r)]
                keys = adm._double_coset_keys(face, cosets)
                assert partition(keys) == scan_partition(cosets, weyl.face_stabilizer(face))
                pairs += len(cosets)
    assert pairs == 1314


def right_descent_walk(g, indices):
    """g times s_j, j in indices, while one of them is a right descent."""
    window = weyl._window(g)
    while (j := next((j for j in indices if weyl._right_descent(window, j)), None)) is not None:
        weyl._times_simple(window, j)
    return weyl._from_window(window)


def double_coset_min_by_inverses(g, w1, w2):
    """The body `double_coset_min` had before its one-window walk: strip the
    left descents as right descents of g^-1, invert back, strip on the right."""
    x = weyl.invert(right_descent_walk(weyl.invert(g), w1.simple_indices))
    return right_descent_walk(x, w2.simple_indices)


@st.composite
def ball_double_cosets(draw):
    """An element w * iota^k, w in the Cayley ball of radius 6 of W_a, d <= 5,
    and two different proper standard parahorics W_K and W_J."""
    d = draw(st.integers(2, 5))
    ball = sorted(wa_elements(d, 6), key=str)
    w = ball[draw(st.integers(0, len(ball) - 1))]
    g = weyl.compose(w, iota_pow(d, draw(st.integers(-d, d))))
    omega = standard_alcove(d)
    types = st.sets(st.integers(0, d - 1), min_size=1)
    k_types = draw(types)
    j_types = draw(types.filter(lambda s: s != k_types))
    return g, weyl.face_stabilizer([omega[i] for i in k_types]), weyl.face_stabilizer([omega[i] for i in j_types])


@settings(max_examples=400, derandomize=True, database=None)
@given(ball_double_cosets())
def test_minmax_length_and_double_coset_min_match_their_oracles(case):
    g, w_k, w_j = case
    x = weyl.double_coset_min(g, w_k, w_j)
    assert x == double_coset_min_by_inverses(g, w_k, w_j)
    # nothing to strip: g itself
    assert x is g or x != g
    assert weyl.minmax_length(x, w_k, w_j) == weyl.length(weyl.minmax_rep(g, w_k, w_j))
    y = weyl.double_coset_min(g, w_j, w_k)
    assert weyl.minmax_length(y, w_j, w_k) == weyl.length(weyl.minmax_rep(g, w_j, w_k))
