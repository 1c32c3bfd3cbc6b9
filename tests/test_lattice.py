import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkedgrass import lattice as lat


def test_canonicalize():
    assert lat.canonicalize((3, 3, 3)) == (0, 0, 0)
    assert lat.canonicalize((1, 2, 0, 0, 0)) == (1, 2, 0, 0, 0)
    assert lat.canonicalize((-1, 0, 1)) == (0, 1, 2)
    assert lat.canonicalize(lat.canonicalize((7, -2, 4))) == lat.canonicalize((7, -2, 4))


def test_adjacency():
    assert lat.classes_adjacent((0, 0, 0, 0, 0), (1, 1, 0, 0, 0))
    assert not lat.classes_adjacent((0, 0), (2, 0))
    assert not lat.classes_adjacent((0, 0, 0), (0, 0, 0))
    assert not lat.classes_adjacent((0, 0), (1, 1))  # same class after shift
    assert lat.classes_adjacent((2, 3, 1), (3, 3, 1))


def test_convex_hull_pair_chain_example():
    chain = lat.convex_hull_pair((0, 0, 0, 2, 0), (1, 2, 0, 0, 0))
    assert chain[0] == (0, 0, 0, 2, 0)
    assert chain[-1] == (1, 2, 0, 0, 0)
    assert chain[1:-1] == [(0, 0, 0, 1, 0), (0, 0, 0, 0, 0), (1, 1, 0, 0, 0)]
    for a, b in zip(chain, chain[1:]):
        assert lat.classes_adjacent(a, b)


def test_convex_hull_pair_degenerate_and_reverse():
    assert lat.convex_hull_pair((1, 1), (1, 1)) == [(0, 0)]
    assert lat.convex_hull_pair((0, 0), (2, 0)) == [(0, 0), (1, 0), (2, 0)]
    fwd = lat.convex_hull_pair((0, 0, 0, 2, 0), (1, 2, 0, 0, 0))
    bwd = lat.convex_hull_pair((1, 2, 0, 0, 0), (0, 0, 0, 2, 0))
    assert fwd == list(reversed(bwd))


def test_is_convex_and_closure():
    single = lat.configuration([(0, 0, 1)])
    assert lat.is_convex(single) == (True, [])
    gap = lat.configuration([(0, 0), (2, 0)])
    convex, missing = lat.is_convex(gap)
    assert not convex and missing == [(1, 0)]
    closed = lat.convex_closure(gap)
    assert closed.vertices == ((0, 0), (1, 0), (2, 0))
    assert lat.is_convex(closed)[0]
    assert lat.convex_closure(closed) == closed


@st.composite
def small_configurations(draw):
    d = draw(st.integers(2, 4))
    point = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    return lat.configuration(draw(st.lists(point, min_size=1, max_size=4)))


@settings(max_examples=150, derandomize=True, database=None)
@given(small_configurations())
def test_convex_closure_is_convex_idempotent_and_contains_its_input(config):
    closed = lat.convex_closure(config)
    assert set(config.vertices) <= set(closed.vertices)
    assert lat.is_convex(closed) == (True, [])
    assert lat.convex_closure(closed) == closed


def test_convex_closure_of_alcove_is_itself():
    omega = lat.configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    assert lat.convex_closure(omega) == omega


def test_transition_basics():
    t = lat.transition((0, 0), (1, 0))
    assert t.n == 0 and t.support == frozenset({2})
    t = lat.transition((1, 0), (0, 0))
    assert t.n == 1 and t.support == frozenset({1})
    d = 4
    t = lat.transition((2, 2, 2, 2), (2, 2, 2, 2))
    assert t.n == 0 and t.support == frozenset(range(1, d + 1))
    # shift invariance
    assert lat.transition((3, 1), (0, 2)) == lat.transition((8, 6), (5, 7))


def test_transition_additivity_along_hulls():
    pairs = [
        ((0, 0, 0, 2, 0), (1, 2, 0, 0, 0)),
        ((0, 0), (3, 0)),
        ((0, 0, 0), (2, 1, 0)),
    ]
    for u, v in pairs:
        chain = lat.convex_hull_pair(u, v)
        total = sum(lat.transition(a, b).n for a, b in zip(chain, chain[1:]))
        assert total == lat.transition(u, v).n
        back = sum(lat.transition(b, a).n for a, b in zip(chain, chain[1:]))
        assert back == lat.transition(v, u).n


def test_hull_supports_partition_and_rank_stability():
    u, v = (0, 0, 0, 2, 0), (1, 2, 0, 0, 0)
    chain = lat.convex_hull_pair(u, v)
    d = len(u)
    for a, b in zip(chain, chain[1:]):
        fwd = lat.transition(a, b).support
        bwd = lat.transition(b, a).support
        assert fwd | bwd == frozenset(range(1, d + 1))
        assert not fwd & bwd
    # the image dimension of the long map equals that of the first step
    assert len(lat.transition(u, v).support) <= len(
        lat.transition(chain[0], chain[1]).support
    )
    composite = lat.transition(chain[0], chain[1]).support
    for a, b in zip(chain[1:], chain[2:]):
        composite = composite & lat.transition(a, b).support
    assert composite == lat.transition(u, v).support


def test_maximal_simplices():
    simplex = lat.configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    assert lat.maximal_simplices(simplex) == [((0, 0, 0), (1, 0, 0), (1, 1, 0))]
    omega4 = lat.configuration(
        [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)]
    )
    assert len(lat.maximal_simplices(omega4)) == 1
    two_triangles = lat.configuration(
        [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)]
    )
    simplices = lat.maximal_simplices(two_triangles)
    assert sorted(len(s) for s in simplices) == [3, 3]
    shared = set(simplices[0]) & set(simplices[1])
    assert shared == {(0, 0, 0, 0)}


def test_lattice_quiver_representatives():
    # the canonical representatives order into a chain on every maximal simplex
    configs = [
        lat.configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0)]),
        lat.configuration([(5, 3, 4)]),
        lat.configuration(
            [(0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 2, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 2, 0)]
        ),
    ]
    for config in configs:
        for simplex in lat.maximal_simplices(config):
            assert lat.chain_order(simplex) == simplex


def test_chain_order_rejects_bad_input():
    with pytest.raises(ValueError):
        lat.chain_order([(0, 1, 2), (2, 1, 0)])


def test_configuration_json_roundtrip():
    config = lat.configuration([(0, 0), (1, 0), (2, 0)])
    assert lat.Configuration.from_json(config.to_json()) == config
