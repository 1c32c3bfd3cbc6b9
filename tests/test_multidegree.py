import itertools
import math
import random

import pytest

from linkedgrass import multidegree as md


# Oracles: the search-based bodies the closed forms replaced.


def oracle_twist(graph, w, v, sign=1):
    """One twist (sign 1) or untwist (sign -1) at v, written out."""
    out = list(w)
    out[v] -= sign * graph.degree(v)
    for u in graph.adjacency[v]:
        out[u] += sign
    return tuple(out)


def oracle_apply_twists(graph, w, counts):
    """|c_v| single twists or untwists at each v."""
    out = tuple(w)
    for v, c in enumerate(counts):
        for _ in range(abs(c)):
            out = oracle_twist(graph, out, v, 1 if c > 0 else -1)
    return out


def oracle_is_concentrated(graph, w, v):
    """Depth-first search over orders from v, memoised on the used set."""
    n = graph.n
    seen = set()

    def search(used, current, order):
        if len(used) == n:
            return order
        if used in seen:
            return None
        seen.add(used)
        current = oracle_twist(graph, current, order[-1], -1)
        for nxt in range(n):
            if nxt not in used and current[nxt] < 0:
                hit = search(used | {nxt}, current, order + (nxt,))
                if hit is not None:
                    return hit
        return None

    hit = search(frozenset([v]), tuple(w), (v,))
    return hit is not None, hit


def oracle_box(graph, w0, concentrated):
    """The coordinatewise maximum of the twist vectors from w0 to each w_v,
    pinned to zero at v and shifted to minimum zero."""
    box = [0] * graph.n
    for v, w_v in concentrated.items():
        base = md._solve_reduced(graph, [a - b for a, b in zip(w0, w_v)], v)
        box = [max(b, int(x - min(base))) for b, x in zip(box, base)]
    return box


def oracle_vbar_set(graph, w0, concentrated, widen=0):
    """Scan the nonnegative box, widened by `widen`, solving each point's
    twist to every w_v by exact elimination."""
    members = set()
    for counts in itertools.product(*[range(b + widen + 1) for b in oracle_box(graph, w0, concentrated)]):
        w = oracle_apply_twists(graph, w0, counts)
        if all(md.solve_twist(graph, w, w_v, v) is not None for v, w_v in concentrated.items()):
            members.add(w)
    return sorted(members)


def random_graph(rng, n):
    """A connected graph: a random spanning tree plus random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3}
    return md.DualGraph(n, tuple(edges))


def reduced(graph, w, v):
    """The v-reduced multidegree twist-equivalent to w (Baker-Norine), which
    is concentrated on v: make every other vertex nonnegative by twisting
    balls around v, then twist the set Dhar's burning from v leaves unburnt
    until everything burns."""
    dist = {v: 0}
    frontier = [v]
    while frontier:
        nxt = []
        for a in frontier:
            for b in graph.adjacency[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    w = tuple(w)
    for k in range(max(dist.values()), 0, -1):
        ball = [int(dist[u] < k) for u in range(graph.n)]
        while any(w[u] < 0 for u in range(graph.n) if dist[u] == k):
            w = oracle_apply_twists(graph, w, ball)
    while True:
        burnt = {v}
        while True:
            fresh = [u for u in range(graph.n) if u not in burnt and w[u] < len(burnt & set(graph.adjacency[u]))]
            if not fresh:
                break
            burnt.update(fresh)
        if len(burnt) == graph.n:
            return w
        w = oracle_apply_twists(graph, w, [int(u not in burnt) for u in range(graph.n)])


def test_graph_validation():
    with pytest.raises(ValueError):
        md.DualGraph(2, ((0, 0),))
    with pytest.raises(ValueError):
        md.DualGraph(3, ((0, 1),))  # disconnected
    with pytest.raises(ValueError):
        md.DualGraph(2, ((0, 1), (1, 0)))  # parallel edge
    graph = md.DualGraph(1, ())
    assert graph.degree(0) == 0


def test_twist_single_vertex_identity():
    graph = md.DualGraph(1, ())
    assert md.twist_at(graph, (5,), 0) == (5,)


def test_twist_k4_example():
    graph = md.complete_graph(4)
    w0 = (3, 2, 1, 0)
    assert md.twist_at(graph, w0, 0) == (0, 3, 2, 1)


def test_twist_inverse_and_commutativity():
    graph = md.complete_graph(4)
    rng = random.Random(0)
    for _ in range(100):
        w = tuple(rng.randint(-3, 3) for _ in range(4))
        v = rng.randrange(4)
        untwist = [-int(x == v) for x in range(4)]
        assert md.apply_twists(graph, md.twist_at(graph, w, v), untwist) == w
        u = rng.randrange(4)
        assert md.twist_at(graph, md.twist_at(graph, w, v), u) == md.twist_at(
            graph, md.twist_at(graph, w, u), v
        )
        assert sum(md.twist_at(graph, w, v)) == sum(w)


def test_twisting_every_vertex_is_identity():
    for graph in (md.complete_graph(3), md.DualGraph(3, ((0, 1), (1, 2)))):
        w = (4, -1, 2)
        out = w
        for v in range(3):
            out = md.twist_at(graph, out, v)
        assert out == w


def test_solve_twist_basics():
    graph = md.complete_graph(4)
    w0 = (3, 2, 1, 0)
    assert md.solve_twist(graph, w0, w0, 3) == (0, 0, 0, 0)
    w2 = md.twist_at(graph, md.twist_at(graph, w0, 0), 1)
    assert md.solve_twist(graph, w0, w2, 3) == (1, 1, 0, 0)
    assert md.solve_twist(graph, w0, (9, 9, 9, 9), 0) is None  # wrong total
    # unreachable without twisting the forbidden vertex
    w1 = md.twist_at(graph, w0, 3)
    assert md.solve_twist(graph, w0, w1, 3) is None


def test_solve_twist_applies():
    graph = md.DualGraph(3, ((0, 1), (1, 2)))
    rng = random.Random(1)
    for _ in range(100):
        w = tuple(rng.randint(0, 4) for _ in range(3))
        counts = tuple(rng.randint(0, 2) for _ in range(3))
        target = md.apply_twists(graph, w, counts)
        forbidden = min(range(3), key=lambda v: counts[v])
        normalized = tuple(c - counts[forbidden] for c in counts)
        if all(c >= 0 for c in normalized):
            assert md.solve_twist(graph, w, target, forbidden) == normalized


def test_is_concentrated_examples():
    single = md.DualGraph(1, ())
    assert md.is_concentrated(single, (7,), 0)[0]
    edge = md.DualGraph(2, ((0, 1),))
    # all-zero degree: the one negative twist sends the other vertex negative
    assert md.is_concentrated(edge, (0, 0), 0)[0]
    # balanced positive degree is not concentrated anywhere
    assert not md.is_concentrated(edge, (5, 5), 0)[0]
    assert not md.is_concentrated(edge, (5, 5), 1)[0]
    graph = md.complete_graph(4)
    w0 = (3, 2, 1, 0)
    ok, order = md.is_concentrated(graph, w0, 0)
    assert ok and order[0] == 0 and set(order) == set(range(4))


def test_vbar_single_vertex():
    single = md.DualGraph(1, ())
    assert md.vbar_set(single, (3,), {0: (3,)}) == [(3,)]


def test_vbar_rejects_unconcentrated():
    edge = md.DualGraph(2, ((0, 1),))
    with pytest.raises(ValueError):
        md.vbar_set(edge, (5, 5), {0: (5, 5), 1: (5, 5)})


def test_vbar_path_graph_matches_widened_scan():
    graph = md.DualGraph(3, ((0, 1), (1, 2)))
    w0 = (2, 2, 2)
    concentrated = {0: (6, 0, 0), 1: (0, 6, 0), 2: (0, 0, 6)}
    for v, w in concentrated.items():
        assert md.is_concentrated(graph, w, v)[0]
    base = md.vbar_set(graph, w0, concentrated)
    widened = oracle_vbar_set(graph, w0, concentrated, widen=2)
    assert base == widened
    assert w0 in base


def test_kn_instances():
    for n in range(2, 9):
        rep = md.kn_instance(n)
        assert rep.formulas_match
        assert rep.nested_chain
        if n <= 6:
            assert rep.ok
    two = md.kn_instance(2)
    assert two.multidegrees == [(1, 0), (0, 1)]
    assert len(set(two.multidegrees)) == 2


def test_kn_figure_degrees_n4():
    rep = md.kn_instance(4)
    assert rep.multidegrees == [(3, 2, 1, 0), (0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3)]
    assert rep.twist_vectors == [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)]


def test_graph_json_roundtrip():
    graph = md.complete_graph(4)
    assert md.DualGraph.from_json(graph.to_json()) == graph


RANDOM_GRAPHS = [random_graph(random.Random(seed), 1 + seed % 6) for seed in range(60)]
KN_GRAPHS = [md.complete_graph(n) for n in range(2, 9)]
# the oracle solves n eliminations per box point, so it scans at most 3^6 points
ORACLE_POINTS = 729


@pytest.mark.parametrize("graph", KN_GRAPHS + RANDOM_GRAPHS)
def test_apply_twists_matches_single_twists(graph):
    rng = random.Random(graph.n)
    for _ in range(20):
        w = tuple(rng.randint(-3, 3) for _ in range(graph.n))
        counts = tuple(rng.randint(-3, 3) for _ in range(graph.n))
        assert md.apply_twists(graph, w, counts) == oracle_apply_twists(graph, w, counts)
        v = rng.randrange(graph.n)
        assert md.twist_at(graph, w, v) == oracle_twist(graph, w, v)


@pytest.mark.parametrize("graph", KN_GRAPHS + RANDOM_GRAPHS)
def test_is_concentrated_matches_search(graph):
    rng = random.Random(graph.n)
    samples = [tuple(rng.randint(-2, 3) for _ in range(graph.n)) for _ in range(30)]
    if graph in KN_GRAPHS:
        samples += md.kn_instance(graph.n).multidegrees
    for w in samples:
        for v in range(graph.n):
            assert md.is_concentrated(graph, w, v) == oracle_is_concentrated(graph, w, v)


@pytest.mark.parametrize("n", range(1, 7))
def test_vbar_set_matches_widened_scan(n):
    checked = 0
    for seed in range(n - 1, 60, 6):
        rng = random.Random(seed)
        graph = random_graph(rng, n)
        w0 = tuple(rng.randint(0, 2) for _ in range(n))
        concentrated = {v: reduced(graph, w0, v) for v in range(n)}
        for v, w_v in concentrated.items():
            assert oracle_is_concentrated(graph, w_v, v)[0]
        box = oracle_box(graph, w0, concentrated)
        widen = next((k for k in (1, 0) if math.prod(b + 1 + k for b in box) <= ORACLE_POINTS), None)
        if widen is not None:
            members = md.vbar_set(graph, w0, concentrated)
            assert w0 in members
            assert members == oracle_vbar_set(graph, w0, concentrated, widen)
            checked += 1
    assert checked >= 4


@pytest.mark.parametrize("n", range(2, 9))
def test_kn_instance_matches_oracles(n):
    rep = md.kn_instance(n)
    graph = md.complete_graph(n)
    family = [rep.w0]
    for j in range(1, n):
        family.append(oracle_twist(graph, family[-1], j - 1))
    assert rep.multidegrees == family
    assert rep.concentrated == all(oracle_is_concentrated(graph, family[j], j)[0] for j in range(n))
    vbar = oracle_vbar_set(graph, rep.w0, dict(enumerate(family)), widen=1 if n <= 5 else 0)
    assert md.vbar_set(graph, rep.w0, dict(enumerate(family))) == vbar
    assert rep.vbar_matches == (vbar == sorted(set(family)))


def test_vbar_rejects_concentrated_with_other_total():
    edge = md.DualGraph(2, ((0, 1),))
    concentrated = {0: (0, -1), 1: (-1, 0)}
    for v, w_v in concentrated.items():
        assert md.is_concentrated(edge, w_v, v)[0]
    assert oracle_vbar_set(edge, (0, 0), concentrated) == []
    with pytest.raises(ValueError, match="is not twist-equivalent"):
        md.vbar_set(edge, (0, 0), concentrated)
