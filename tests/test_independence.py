import pytest

from linkedgrass import independence as ind
from linkedgrass import quiver as qv
from linkedgrass.lattice import configuration, convex_hull_pair

# triangle with two pendant edges plus a second branch: weakly but not
# linearly independent, with a unique long path whose convex hull drops the
# interior triangle vertex
WEAKEX = [
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0),
    (1, 1, 0, 0, 0),
    (1, 2, 0, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 2, 0),
]


def make_quiver(vertices):
    return qv.Quiver(configuration(vertices))


def minimal_path(quiver, source, sink):
    """The unique non-repeating path from source to sink."""
    paths = ind._simple_paths(quiver, source, sink)
    if len(paths) != 1:
        raise ValueError(f"expected a unique non-repeating path {source} -> {sink}, found {len(paths)}")
    return paths[0]


def a_sets(quiver, arrow):
    """Partition of the vertices by whether the minimal path to t(e) uses s(e):
    no report reads it, so it lives here with its tests."""
    if arrow not in quiver.arrows:
        raise ValueError(f"{arrow} is not an arrow of the quiver")
    src, tgt = arrow
    forward = {v for v in quiver.vertices if v != tgt and src in minimal_path(quiver, v, tgt)}
    return frozenset(forward), frozenset(quiver.vertices) - forward


def test_simplex_weakly_independent_at_every_vertex():
    quiver = make_quiver([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    for v in quiver.vertices:
        assert ind.weakly_independent_at(quiver, v).ok
    assert ind.weakly_independent(quiver)[0]


def test_single_vertex():
    quiver = make_quiver([(0, 0, 0)])
    assert ind.weakly_independent(quiver)[0]
    assert ind.linearly_independent(quiver)


def test_shared_edge_triangles_fail_with_witness():
    quiver = make_quiver([(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)])
    ok, certs = ind.weakly_independent(quiver)
    assert not ok
    bad = [c for c in certs if not c.ok]
    assert bad and all(c.overlap or c.unfactored for c in bad)


def test_weakex_configuration():
    quiver = make_quiver(WEAKEX)
    ok, certs = ind.weakly_independent(quiver)
    assert ok
    assert all(c.ok for c in certs)
    # it is not locally linearly independent: the triangle breaks it
    assert not ind.linearly_independent(quiver)


def test_linear_independence_examples():
    # a path of two edges is a tree of 2-cycles
    path = make_quiver([(0, 0), (1, 0), (2, 0)])
    assert ind.linearly_independent(path)
    assert ind.weakly_independent(path)[0]
    # a 3-vertex simplex has a length-3 cycle
    triangle = make_quiver([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    assert not ind.linearly_independent(triangle)


def test_a_sets_partition_and_independence():
    quiver = make_quiver(WEAKEX)
    arrow = ((1, 1, 0, 0, 0), (0, 0, 0, 0, 0))
    assert arrow in quiver.arrows
    fwd, bwd = a_sets(quiver, arrow)
    assert fwd | bwd == set(quiver.vertices)
    assert not (fwd & bwd)
    assert fwd == {(1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 2, 0, 0, 0)}
    assert arrow[0] in fwd and arrow[1] in bwd
    for part in (fwd, bwd):
        sub = make_quiver(sorted(part))
        assert ind.weakly_independent(sub)[0]


def test_a_sets_two_cycle():
    quiver = make_quiver([(0, 0), (1, 0)])
    fwd, bwd = a_sets(quiver, ((0, 0), (1, 0)))
    assert fwd == {(0, 0)} and bwd == {(1, 0)}


def test_a_sets_rejects_non_arrow():
    quiver = make_quiver([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        a_sets(quiver, ((0, 0), (0, 0)))


def test_validate_structure_simplex():
    quiver = make_quiver([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    report = ind.validate_structure(quiver)
    assert report.ok and report.cycle_count == 1


def test_validate_structure_weakex():
    quiver = make_quiver(WEAKEX)
    report = ind.validate_structure(quiver)
    assert report.ok
    assert report.cycle_count == len(quiver.simplices) == 4


def test_validate_structure_linearly_independent_has_two_cycles_only():
    quiver = make_quiver([(0, 0), (1, 0), (2, 0)])
    report = ind.validate_structure(quiver)
    assert report.ok
    assert all(len(s) == 2 for s in quiver.simplices)


def test_minimal_path_unique_and_hull_is_extremal_vertices():
    quiver = make_quiver(WEAKEX)
    src, dst = (0, 0, 0, 2, 0), (1, 2, 0, 0, 0)
    path = minimal_path(quiver, src, dst)
    assert path[0] == src and path[-1] == dst
    # the interior triangle vertex lies on the path but not in the hull
    assert (1, 0, 0, 0, 0) in path
    hull = convex_hull_pair(src, dst)
    assert (1, 0, 0, 0, 0) not in hull
    assert set(hull) <= set(path)
    # hull = local extremal vertices: endpoints of the path's cycle segments
    extremal = {src, dst}
    for simplex in quiver.simplices:
        inside = [v for v in path if v in simplex]
        if inside:
            extremal.add(inside[0])
            extremal.add(inside[-1])
    assert set(hull) == extremal


def test_certificate_json():
    quiver = make_quiver([(0, 0), (1, 0)])
    cert = ind.weakly_independent_at(quiver, (0, 0))
    assert '"ok": true' in cert.to_json()
