import collections
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkedgrass import admissible as adm
from linkedgrass import cli, gf, independence
from linkedgrass import quiver as qv
from linkedgrass import verify as vf
from linkedgrass import weyl
from linkedgrass.lattice import Configuration, InvariantError, canonicalize, chain_order, configuration
from linkedgrass.verify import SHARED_EDGE_TRIANGLES, WEAKLY_INDEPENDENT_INSTANCES

from test_weyl import iota_pow, wa_elements  # the Cayley-ball oracle helpers, not tests

OMEGA = {d: adm.standard_alcove(d) for d in (2, 3, 4)}
CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def make_quiver(vertices):
    return qv.Quiver(configuration(vertices))


def increments(face):
    """The face's 0/1 vectors minus its simplex's representatives."""
    return tuple(tuple(x - r for x, r in zip(vec, rep)) for vec, rep in zip(face.vectors, face.simplex))


def enumerate_admissible_alcoves(r, d):
    """Admissible perturbations of the standard alcove, as vector arrays."""
    return [face.vectors for face in adm.admissible_faces(adm.standard_alcove(d), r)]


def test_admissible_alcoves_d2_r1_exact():
    alcoves = {tuple(a) for a in enumerate_admissible_alcoves(1, 2)}
    assert alcoves == {
        ((1, 0), (2, 0)),
        ((1, 0), (1, 1)),
        ((0, 1), (1, 1)),
    }


def test_translation_alcoves_always_admissible():
    for d in (2, 3, 4):
        for r in range(1, d):
            alcoves = set(enumerate_admissible_alcoves(r, d))
            for ones in itertools.combinations(range(d), r):
                mu = tuple(1 if i in ones else 0 for i in range(d))
                translated = tuple(
                    tuple(o + m for o, m in zip(om, mu)) for om in OMEGA[d]
                )
                assert translated in alcoves


def test_alcove_count_matches_bruhat_criterion_oracle():
    # criterion (1): g below some permuted block translation in Bruhat order
    d, r = 3, 1
    mu_translations = [
        weyl.translation(tuple(perm))
        for perm in sorted(set(itertools.permutations([1] * r + [0] * (d - r))))
    ]
    omega = OMEGA[d]
    arrays = set()
    for w in wa_elements(d, r * (d - r)):
        g = weyl.compose(w, iota_pow(d, r))
        if any(weyl.bruhat_leq(g, t) for t in mu_translations):
            arrays.add(tuple(weyl.act(g, om) for om in omega))
    assert arrays == set(enumerate_admissible_alcoves(r, d))


def product_filter_faces(chain, r):
    """Oracle: every product of size-r 0/1 increments, filtered afterwards."""
    d = len(chain[0])
    increments = [
        tuple(1 if i in ones else 0 for i in range(d))
        for ones in itertools.combinations(range(d), r)
    ]
    out = []
    for eps in itertools.product(increments, repeat=len(chain)):
        vectors = tuple(tuple(x + e for x, e in zip(rep, inc)) for rep, inc in zip(chain, eps))
        ok = all(
            all(a <= b <= a + 1 for a, b in zip(vectors[k], vectors[k + 1]))
            for k in range(len(chain) - 1)
        )
        if len(chain) > 1:
            ok = ok and all(b <= a + 1 for a, b in zip(vectors[0], vectors[-1]))
        if ok:
            out.append(vectors)
    return out


BRANCHED = {
    4: [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)],
    5: [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 0, 1, 0)],
}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pruned_faces_match_product_oracle_on_alcoves(d):
    omega = adm.standard_alcove(d)
    for r in range(1, d):
        faces = adm.admissible_faces(omega, r)
        assert [f.vectors for f in faces] == product_filter_faces(omega, r)
        for f in faces:
            assert tuple(weyl.act(f.coset, rep) for rep in f.simplex) == f.vectors


@pytest.mark.parametrize("d", [4, 5])
def test_pruned_faces_match_product_oracle_on_branched(d):
    quiver = make_quiver(BRANCHED[d])
    for simplex in quiver.simplices:
        chain = chain_order(simplex)
        for r in range(1, d):
            got = [f.vectors for f in adm.admissible_faces(simplex, r)]
            assert got == product_filter_faces(chain, r)


def scanned_faces(chain, r):
    """Oracle: the depth-first scan `admissible_faces` pruned by masks
    replaced, trying every increment at every vertex in product order."""
    d = len(chain[0])
    increments = [
        tuple(1 if i in ones else 0 for i in range(d))
        for ones in itertools.combinations(range(d), r)
    ]
    out = []

    def extend(vectors):
        if len(vectors) == len(chain):
            out.append(vectors)
            return
        rep = chain[len(vectors)]
        last = len(vectors) == len(chain) - 1
        for inc in increments:
            vec = tuple(x + e for x, e in zip(rep, inc))
            if vectors and not all(a <= b <= a + 1 for a, b in zip(vectors[-1], vec)):
                continue
            if last and vectors and not all(b <= a + 1 for a, b in zip(vectors[0], vec)):
                continue
            extend(vectors + (vec,))

    extend(())
    return out


SIX_VERTEX_D5 = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 2, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 2, 0)]


def test_masked_faces_match_the_scan_on_every_simplex():
    # the 12 bench configurations, alcove-d6 and the six-vertex d5 one
    quivers = [qv.Quiver(Configuration.from_json(path.read_text())) for path in sorted(CONFIGS.glob("*.json"))]
    assert len(quivers) == 12
    quivers += [make_quiver(adm.standard_alcove(6)), make_quiver(SIX_VERTEX_D5)]
    count = 0
    for quiver in quivers:
        for simplex in quiver.simplices:
            chain = chain_order(simplex)
            for r in range(1, quiver.d):
                faces = adm.admissible_faces(simplex, r)
                assert [f.vectors for f in faces] == scanned_faces(chain, r)
                count += len(faces)
    assert count == 1006 + 1955 + 308


@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (3, 2)])
def test_admissibility_equivalence_small(d, r):
    # on every w * iota^s with l(w) <= 5: lying below a permuted block
    # translation (the Bruhat side), mapping the alcove to an admissible
    # perturbation (the coordinate side) and lying in admissible_set agree
    omega = adm.standard_alcove(d)
    translations = [
        weyl.translation(tuple(int(k in ones) for k in range(d))) for ones in itertools.combinations(range(d), r)
    ]
    admissible, seen = adm.admissible_set(d, r), set()
    for w in wa_elements(d, 5):
        for s in sorted(set(range(-1, d + 1)) | {r - d, r, r + d}):
            g = weyl.compose(w, iota_pow(d, s))
            bruhat_side = any(weyl.bruhat_leq(g, t) for t in translations)
            images = [weyl.act(g, om) for om in omega]
            coord_side = all(
                all(o <= x <= o + 1 for o, x in zip(om, img)) and sum(img) - sum(om) == r
                for om, img in zip(omega, images)
            )
            assert bruhat_side == coord_side == (g in admissible), g
            seen.add(g)
    assert admissible <= seen  # every element has length at most r(d - r) <= 2


def test_admissibility_suite_is_exact_up_to_d6():
    # Adm(mu) = Perm(mu), and the keys on all 258 standard faces omega_I with
    # 0 in I are the double cosets of Adm(mu), for every d <= 6 and r
    report = vf.run_suite("admissibility", d=6)
    assert report["passed"]
    sizes = {name: check["adm"] for name, check in report["checks"].items()}
    expected = {f"d{d}-r{r}": 2**d - 1 for d in range(2, 7) for r in (1, d - 1)}
    expected.update({"d4-r2": 33, "d5-r2": 131, "d5-r3": 131, "d6-r2": 473, "d6-r3": 883, "d6-r4": 473})
    assert sizes == expected
    assert all(check["perm"] == check["adm"] for check in report["checks"].values())
    assert sum(check["faces"] for check in report["checks"].values()) == 258


def test_admissibility_suite_names_an_alcove_face_that_goes_missing(monkeypatch):
    faces = adm.admissible_faces
    dropped = faces(adm.standard_alcove(3), 1)[0]

    def drop_one(simplex, r):
        return [f for f in faces(simplex, r) if f != dropped]

    monkeypatch.setattr(adm, "admissible_faces", drop_one)
    report = vf.run_suite("admissibility", d=3)
    assert not report["passed"]
    failed = {name: check for name, check in report["checks"].items() if not check["ok"]}
    assert list(failed) == ["d3-r1"]
    assert failed["d3-r1"]["adm_not_perm"] == [str(dropped.coset)]
    assert failed["d3-r1"]["perm_not_adm"] == []
    assert failed["d3-r1"]["faces_failed"] == [str(list(adm.standard_alcove(3)))]


def window_rank(face, d):
    """Independent oracle: the cyclic-window sums over the increments on a
    standard face, read from the type indices."""
    types = [sum(v) for v in face.simplex]
    out = {}
    for a, i in enumerate(types):
        for b, j in enumerate(types):
            if i == j:
                continue
            if i < j:
                window = list(range(j + 1, d + 1)) + list(range(1, i + 1))
            else:
                window = list(range(j + 1, i + 1))
            eps = increments(face)[a]
            out[(face.simplex[a], face.simplex[b])] = sum(eps[k - 1] for k in window)
    return out


@pytest.mark.parametrize(
    "d,r,subset",
    [(2, 1, None), (3, 1, None), (3, 2, None), (4, 2, None), (3, 1, (0, 1)), (4, 1, (0, 1, 2))],
)
def test_stratum_ranks_match_cyclic_window_formula(d, r, subset):
    verts = OMEGA[d] if subset is None else [OMEGA[d][i] for i in subset]
    quiver = make_quiver(verts)
    for col in adm.enumerate_admissible_collections(quiver, r):
        face = col.faces[0]
        expected = window_rank(face, d)
        got = adm.stratum_rank_vector(col, quiver).as_dict()
        for pair, value in expected.items():
            assert got[pair] == value


def test_equivalent_faces_share_rank_vector():
    # a proper face with a nontrivial stabilizer: classes can merge
    quiver = make_quiver([OMEGA[3][0], OMEGA[3][1]])
    simplex = quiver.simplices[0]
    stab = weyl.face_stabilizer(simplex)
    assert len(stab) == 2
    groups = {}
    for face in adm.admissible_faces(simplex, 1):
        key = weyl.double_coset_min(face.coset, stab, stab)
        groups.setdefault(key, []).append(face)
    assert any(len(g) > 1 for g in groups.values())
    for faces in groups.values():
        cols = [adm.AdmissibleCollection(1, (f,)) for f in faces]
        ranks = {adm.stratum_rank_vector(c, quiver) for c in cols}
        assert len(ranks) == 1


@pytest.mark.parametrize("d,expected", [(2, 3), (3, 7), (4, 15)])
def test_collection_counts_standard_alcove_r1(d, expected):
    quiver = make_quiver(OMEGA[d])
    assert len(adm.enumerate_admissible_collections(quiver, 1)) == expected


def test_collection_count_d4_r2():
    quiver = make_quiver(OMEGA[4])
    assert len(adm.enumerate_admissible_collections(quiver, 2)) == 33


def test_gluing_filters_collections():
    quiver = make_quiver([(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)])
    cols = adm.enumerate_admissible_collections(quiver, 1)
    per_simplex = [len(adm.admissible_faces(s, 1)) for s in quiver.simplices]
    assert len(cols) < per_simplex[0] * per_simplex[1]
    assert len(cols) == 19


def test_generalized_order_reflexive_and_top_translations_incomparable():
    quiver = make_quiver(OMEGA[3])
    cols = adm.enumerate_admissible_collections(quiver, 1)
    for c in cols:
        assert adm.generalized_bruhat_leq(c, c)
    tops = adm.top_strata(cols)
    assert len(tops) == 3
    for x, y in itertools.combinations(tops, 2):
        assert not adm.generalized_bruhat_leq(x, y)
        assert not adm.generalized_bruhat_leq(y, x)


def test_single_vertex_configuration_has_one_stratum():
    quiver = make_quiver([(0, 0, 0)])
    cols = adm.enumerate_admissible_collections(quiver, 1)
    assert len(cols) == 1
    assert len(adm.top_strata(cols)) == 1


def test_stratum_dimensions_monotone_and_extreme():
    quiver = make_quiver(OMEGA[3])
    cols = adm.enumerate_admissible_collections(quiver, 1)
    dims = {c: adm.stratum_dimension(c.faces[0]) for c in cols}
    assert min(dims.values()) == 0
    assert max(dims.values()) == 2
    for x, y in itertools.product(cols, repeat=2):
        if adm.generalized_bruhat_leq(x, y):
            assert dims[x] <= dims[y]


@pytest.mark.parametrize("d,r", [(3, 1), (4, 1), (4, 2)])
def test_top_dimension_attained_exactly_on_top_strata(d, r):
    quiver = make_quiver(OMEGA[d])
    cols = adm.enumerate_admissible_collections(quiver, r)
    tops = set(adm.top_strata(cols))
    for c in cols:
        dim = adm.stratum_dimension(c.faces[0])
        assert dim <= r * (d - r)
        assert (dim == r * (d - r)) == (c in tops)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name, r", [(f"alcove-d{d}", r) for d in (3, 4) for r in (1, 2)])
def test_one_simplex_strata_have_p_to_the_dimension_points(name, r, p):
    # affine cells of the local model's special fibre (Iwahori orbits)
    quiver = qv.Quiver(Configuration.from_json((CONFIGS / f"{name}.json").read_text()))
    cols = adm.enumerate_admissible_collections(quiver, r)
    expected = {
        adm.stratum_rank_vector(c, quiver): p ** adm.stratum_dimension(c.faces[0]) for c in cols
    }
    points = collections.Counter(
        qv.rank_vector(M, quiver) for M in qv.enumerate_subreps(quiver, r, p)
    )
    assert len(expected) == len(cols) and dict(points) == expected


def test_rank_vector_determines_collection():
    for verts, r in [
        (OMEGA[3], 1),
        ([(0, 0), (1, 0), (2, 0)], 1),
        ([(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)], 1),
    ]:
        quiver = make_quiver(verts)
        cols = adm.enumerate_admissible_collections(quiver, r)
        ranks = {adm.stratum_rank_vector(c, quiver) for c in cols}
        assert len(ranks) == len(cols)


def test_r1_order_check_reports():
    quiver = make_quiver(OMEGA[3])
    report = adm.r1_order_check(quiver, 2)
    assert report["ok"] and report["faces"] == report["realized"] == 7


def test_realizable_strata_counts():
    quiver = make_quiver([(0, 0), (1, 0), (2, 0)])
    table = adm.strata(quiver, 1)
    real = [s for s in table if s.realizable]
    assert (len(table), len(real)) == (9, 5)
    enum = {qv.rank_vector(M, quiver) for M in qv.enumerate_subreps(quiver, 1, 2)}
    assert {s.rank for s in real} == enum


def test_realizable_strata_six_vertex_branched_d5():
    quiver = make_quiver(SIX_VERTEX_D5)
    table = adm.strata(quiver, 1)
    assert len(table) == 189
    real = {s.rank for s in table if s.realizable}
    enum = {qv.rank_vector(M, quiver) for M in qv.enumerate_subreps(quiver, 1, 2)}
    assert real == enum
    assert len(real) == 13


def clear_cli_tables():
    """The command line keeps one quiver and set of stratum labels per
    configuration: clear them, so the facts an earlier test read do not hide
    the calls."""
    cli._stratum_labels.cache_clear()
    cli._quiver.cache_clear()


def test_independence_is_checked_once_per_realizability_pass(monkeypatch, capsys):
    clear_cli_tables()
    check = independence.weakly_independent
    calls = []
    monkeypatch.setattr(independence, "weakly_independent", lambda q: calls.append(q) or check(q))
    quiver = make_quiver([(0, 0), (1, 0), (2, 0)])
    assert sum(s.realizable for s in adm.strata(quiver, 1)) == 5 and len(calls) == 1
    calls.clear()
    assert cli.main(["admissible", str(CONFIGS / "branched-d4.json"), "--r", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1 and all("realizable" in entry for entry in report["strata"])


def test_realizability_rejects_dependent_configurations():
    quiver = make_quiver(SHARED_EDGE_TRIANGLES)
    assert not independence.weakly_independent(quiver)[0]
    phi = adm.stratum_rank_vector(adm.enumerate_admissible_collections(quiver, 1)[0], quiver)
    with pytest.raises(ValueError):
        adm.rank_vector_realizable(phi, quiver)
    table = adm.strata(quiver, 1)
    with pytest.raises(ValueError):
        table[0].realizable


def config_r_cases():
    """(name, r) for every `bench/configs` configuration at every valid r."""
    for path in sorted(CONFIGS.glob("*.json")):
        d = Configuration.from_json(path.read_text()).d
        yield from ((path.stem, r) for r in range(1, d))


@pytest.mark.parametrize("name, r", list(config_r_cases()))
def test_stratum_table_lists_collections_with_their_rank_vectors(name, r):
    quiver = qv.Quiver(Configuration.from_json((CONFIGS / f"{name}.json").read_text()))
    oracle = [
        (c, adm.stratum_rank_vector(c, quiver))
        for c in adm.enumerate_admissible_collections(quiver, r)
    ]
    assert [(s.collection, s.rank) for s in adm.strata(quiver, r)] == oracle


@pytest.mark.parametrize("name", sorted(WEAKLY_INDEPENDENT_INSTANCES))
def test_stratum_table_realizable_flag_on_weakly_independent_instances(name):
    verts, r = WEAKLY_INDEPENDENT_INSTANCES[name]
    quiver = make_quiver(verts)
    for s in adm.strata(quiver, r):
        assert s.realizable == adm.rank_vector_realizable(s.rank, quiver)


def test_strata_reads_no_realizability_and_admissible_one_per_stratum(monkeypatch, capsys):
    clear_cli_tables()
    check = adm.rank_vector_realizable
    calls = []
    monkeypatch.setattr(adm, "rank_vector_realizable", lambda *a: calls.append(a) or check(*a))
    path = str(CONFIGS / "branched-d4.json")
    assert cli.main(["strata", path, "--r", "1"]) == 0
    assert calls == []
    capsys.readouterr()
    assert cli.main(["admissible", path, "--r", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == report["count"] == len(report["strata"])


def test_rank_vector_realizable_examples():
    u, v = (0, 0), (1, 0)
    quiver = make_quiver([u, v])
    dims = {(u, u): 1, (v, v): 1}
    # both off-diagonal ranks 1 is impossible at dimensions (1, 1)
    assert not adm.rank_vector_realizable(qv.RankVector.from_dict({**dims, (u, v): 1, (v, u): 1}), quiver)
    assert adm.rank_vector_realizable(qv.RankVector.from_dict({**dims, (u, v): 1, (v, u): 0}), quiver)
    # all-zero off-diagonal fits inside the kernels, one coordinate each
    assert adm.rank_vector_realizable(qv.RankVector.from_dict({**dims, (u, v): 0, (v, u): 0}), quiver)
    # on the edge (0,0,0,0)-(1,1,1,0) each map has support of size 3, so a
    # 1-dimensional kernel on F_p^4: a plane cannot lie inside it, though
    # every summand multiplicity is nonnegative
    u, v = (0, 0, 0, 0), (1, 1, 1, 0)
    quiver = make_quiver([u, v])
    zero = qv.RankVector.from_dict({(u, u): 2, (v, v): 2, (u, v): 0, (v, u): 0})
    assert all(qv.multiplicities_from_rank(zero, t, quiver) >= 0 for t in quiver.summand_types)
    assert not adm.rank_vector_realizable(zero, quiver)
    for p in (2, 3):
        assert zero not in qv.rank_classes(quiver, {u: 2, v: 2}, p)


def test_rank_vector_realizable_is_exact_on_label_perturbations():
    # every stratum label of the weakly independent verification instances,
    # and each label moved by +1 or -1 at each entry in turn, staying >= 0:
    # the field-free test against the brute-force rank image at p = 2 and 3
    vectors, realizable = 0, 0
    for verts, r in WEAKLY_INDEPENDENT_INSTANCES.values():
        quiver = make_quiver(verts)

        @functools.cache
        def image(dims, p):
            return frozenset(qv.rank_classes(quiver, dict(zip(quiver.vertices, dims)), p))

        for label in {s.rank for s in adm.strata(quiver, r)}:
            entries = list(label.entries)
            moved = [
                qv.RankVector(tuple(entries[:i] + [(pair, value + step)] + entries[i + 1 :]))
                for i, (pair, value) in enumerate(entries)
                for step in (1, -1)
                if value + step >= 0
            ]
            for phi in [label, *moved]:
                dims = tuple(phi.as_dict()[(v, v)] for v in quiver.vertices)
                found = phi in image(dims, 2)
                assert found == (phi in image(dims, 3))
                assert adm.rank_vector_realizable(phi, quiver) == found
                vectors += 1
                realizable += found
    assert (vectors, realizable) == (2818, 389)


def test_r1_face_roundtrip_all_faces():
    quiver = make_quiver(OMEGA[3])
    p = 2
    faces = adm.complex_faces(quiver)
    assert len(faces) == 7
    for face in faces:
        rep = adm.r1_rep_of_face(quiver, face, p)
        got, covering = adm.r1_face_of(rep, quiver)
        assert got == frozenset(face)
        covered = set()
        for part in covering.values():
            assert not covered & part
            covered |= part
        assert covered == set(quiver.vertices)


def r1_face_by_maps(M, quiver):
    """The former body of `r1_face_of` without its simplex check, as oracle:
    every map applied to the line at each vertex."""
    eps = {v: M.spaces[v][0] for v in quiver.vertices}
    maximal = {
        u
        for u in quiver.vertices
        if all(gf.is_zero(quiver.apply_map(v, u, eps[v], M.p)) for v in quiver.vertices if v != u)
    }
    covering = {
        u: frozenset(w for w in quiver.vertices if w == u or not gf.is_zero(quiver.apply_map(u, w, eps[u], M.p)))
        for u in sorted(maximal)
    }
    return frozenset(maximal), covering


@pytest.mark.parametrize("p", [2, 3])
def test_r1_face_of_matches_the_map_oracle(p):
    points = 0
    for verts in vf.DIM1_INSTANCES:
        quiver = make_quiver(verts)
        reps = [adm.r1_rep_of_face(quiver, face, p) for face in adm.complex_faces(quiver)]
        for M in [*qv.enumerate_subreps(quiver, 1, p), *reps]:
            assert adm.r1_face_of(M, quiver) == r1_face_by_maps(M, quiver), (verts, M)
            points += 1
    assert points > 50


def test_r1_projective_rep_has_smallest_faces():
    quiver = make_quiver(OMEGA[3])
    p = 2
    for M in qv.enumerate_subreps(quiver, 1, p):
        delta, _ = adm.r1_face_of(M, quiver)
        assert len(delta) >= 1


def test_r1_order_vertex_below_edge():
    quiver = make_quiver([(0, 0), (1, 0)])
    p = 2
    by_face = {}
    for M in qv.enumerate_subreps(quiver, 1, p):
        delta, _ = adm.r1_face_of(M, quiver)
        by_face[delta] = qv.rank_vector(M, quiver)
    edge = frozenset(quiver.vertices)
    for v in quiver.vertices:
        # a larger face means a smaller rank vector
        assert by_face[edge].leq(by_face[frozenset({v})])


# the (configuration, r) pairs of the `admissible` jobs in the weyl-strata benchmark
ADMISSIBLE_JOBS = [(f"alcove-d{d}", r) for d in (3, 4, 5) for r in range(1, d)] + [
    ("face-d5", 2), ("edge-d5", 2), ("path-d3", 1), ("path-d3", 2),
    ("branched-d4", 1), ("branched-d4", 2), ("branched-d5", 1),
]


@pytest.mark.parametrize("name, r", ADMISSIBLE_JOBS)
def test_top_strata_match_pairwise_generalized_order(name, r):
    quiver = qv.Quiver(Configuration.from_json((CONFIGS / f"{name}.json").read_text()))
    cols = adm.enumerate_admissible_collections(quiver, r)
    leq = adm.generalized_bruhat_leq
    pairwise = [
        x for x in cols
        if not any(y is not x and leq(x, y) and not leq(y, x) for y in cols)
    ]
    assert adm.top_strata(cols) == pairwise


@pytest.mark.parametrize("name, r", ADMISSIBLE_JOBS)
def test_top_strata_reads_bruhat_data_once_per_distinct_key(name, r, monkeypatch):
    cols = job_collections(name, r)
    expected = adm.top_strata(cols)
    calls = []
    bruhat_data = weyl.bruhat_data
    monkeypatch.setattr(weyl, "bruhat_data", lambda g: calls.append(g) or bruhat_data(g))
    assert adm.top_strata(cols) == expected
    faces = {f for c in cols for f in c.faces}
    assert len(calls) == len(set(calls)) <= len(faces)
    assert set(calls) == {adm._standard_key(f) for f in faces}


def standard_faces(d):
    """The faces omega_I of the standard alcove with 0 in I."""
    for k in range(d):
        for rest in itertools.combinations(range(1, d), k):
            yield [(1,) * i + (0,) * (d - i) for i in (0, *rest)]


@pytest.mark.parametrize("d", range(2, 7))
def test_maximal_strata_are_the_translation_classes_on_standard_faces(d):
    # the closed forms against their searches on 2, 8, 24, 64 and 160 tables:
    # the maxima against the length sweep, and `realizable` (true on every
    # one-simplex stratum) against the summand-type search
    cases = 0
    for vertices in standard_faces(d):
        quiver = make_quiver(vertices)
        for r in range(1, d):
            table = adm.strata(quiver, r)
            maxima = adm.maximal_strata(table)
            assert [s.collection for s in maxima] == adm.top_strata([s.collection for s in table])
            if len(vertices) == d:  # the alcove: one class per translation
                assert len(maxima) == math.comb(d, r)
            assert all(s.realizable and adm.rank_vector_realizable(s.rank, quiver) for s in table)
            cases += 1
    assert cases == 2 ** (d - 1) * (d - 1)


ONE_SIMPLEX_CONFIGS = ["alcove-d3", "alcove-d4", "alcove-d5", "face-d5", "edge-d5", "segment-d2", "triangle-d3"]


@pytest.mark.parametrize("name", ONE_SIMPLEX_CONFIGS)
def test_one_simplex_strata_are_realizable_by_the_search(name):
    quiver = qv.Quiver(Configuration.from_json((CONFIGS / f"{name}.json").read_text()))
    assert len(quiver.simplices) == 1
    for r in range(1, quiver.d):
        table = adm.strata(quiver, r)
        assert table and all(s.realizable and adm.rank_vector_realizable(s.rank, quiver) for s in table)


def test_admissible_searches_realizability_only_on_glued_configurations(monkeypatch, capsys):
    clear_cli_tables()
    search = adm.types_from_rank
    calls = []
    monkeypatch.setattr(adm, "types_from_rank", lambda *a: calls.append(a) or search(*a))
    for name in ONE_SIMPLEX_CONFIGS + ["branched-d4", "path-d3"]:
        d = Configuration.from_json((CONFIGS / f"{name}.json").read_text()).d
        for r in range(1, d):
            calls.clear()
            assert cli.main(["admissible", str(CONFIGS / f"{name}.json"), "--r", str(r)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert all("realizable" in entry for entry in report["strata"])
            assert len(calls) == (0 if name in ONE_SIMPLEX_CONFIGS else report["count"]), (name, r)


@pytest.mark.parametrize("name", ["face-d5", "edge-d5", "branched-d4", "path-d3"])
def test_maximal_strata_match_the_sweep_on_configs(name):
    quiver = qv.Quiver(Configuration.from_json((CONFIGS / f"{name}.json").read_text()))
    for r in range(1, quiver.d):
        table = adm.strata(quiver, r)
        maxima = adm.maximal_strata(table)
        assert [s.collection for s in maxima] == adm.top_strata([s.collection for s in table])


@functools.cache
def job_collections(name, r):
    quiver = qv.Quiver(Configuration.from_json((CONFIGS / f"{name}.json").read_text()))
    return adm.enumerate_admissible_collections(quiver, r)


@st.composite
def sub_tables(draw):
    """Collections drawn with repeats from the table of one benchmark job."""
    cols = job_collections(*draw(st.sampled_from(ADMISSIBLE_JOBS)))
    return [cols[i] for i in draw(st.lists(st.integers(0, len(cols) - 1), min_size=1, max_size=25))]


@settings(max_examples=300, derandomize=True, database=None)
@given(sub_tables())
def test_top_strata_of_sub_tables_match_pairwise_generalized_order(cols):
    # the length sweep on any sub-list, repeats kept in place and mutually maximal
    leq = adm.generalized_bruhat_leq
    pairwise = [
        x for x in cols
        if not any(y is not x and leq(x, y) and not leq(y, x) for y in cols)
    ]
    assert adm.top_strata(cols) == pairwise


def test_generalized_order_rejects_incomparable_collections():
    quiver = make_quiver(OMEGA[3])
    x = adm.enumerate_admissible_collections(quiver, 1)[0]
    y = adm.enumerate_admissible_collections(quiver, 2)[0]
    with pytest.raises(InvariantError, match="r = 1 and r = 2"):
        adm.generalized_bruhat_leq(x, y)
    with pytest.raises(InvariantError, match="r = 1 and r = 2"):
        adm.top_strata([x, y])


def solve_face_map_search(source, target, d):
    """Oracle: the first permutation, in lexicographic order, whose element
    sends every source vector to its target (the search `_solve_face_map` replaced)."""
    for sigma in itertools.permutations(range(1, d + 1)):
        moved = weyl.perm_apply(sigma, source[0])
        g = weyl.WeylElement(sigma, tuple(t - m for t, m in zip(target[0], moved)))
        if all(weyl.act(g, s) == tuple(t) for s, t in zip(source, target)):
            return g
    return None


def standard_types_search(face):
    """Oracle: the type loop over i0 that `_standard_frame` replaced."""
    d = len(face.simplex[0])
    sums = [sum(v) for v in face.simplex]
    for i0 in range(d - (sums[-1] - sums[0])):
        omega_i = [tuple(1 if k < i0 + s - sums[0] else 0 for k in range(d)) for s in sums]
        if solve_face_map_search(omega_i, face.simplex, d) is not None:
            return omega_i
    return None


def test_solve_face_map_matches_search_on_configs(monkeypatch):
    calls = []
    solve = adm._solve_face_map
    monkeypatch.setattr(adm, "_solve_face_map", lambda *args: calls.append(args) or solve(*args))
    adm._standard_key.cache_clear()
    adm._standard_frame.cache_clear()
    paths, faces = sorted(CONFIGS.glob("*.json")), []
    assert len(paths) == 12
    for path in paths:
        quiver = qv.Quiver(Configuration.from_json(path.read_text()))
        for simplex in quiver.simplices:
            for r in range(1, quiver.d):
                for face in adm.admissible_faces(simplex, r):
                    omega_i = standard_types_search(face)
                    assert list(adm._standard_frame(face.simplex)[0]) == omega_i
                    g = solve_face_map_search(omega_i, face.simplex, len(omega_i[0]))
                    stab = weyl.face_stabilizer(omega_i)
                    h_std = weyl.compose(weyl.compose(weyl.invert(g), face.coset), g)
                    assert adm._standard_key(face) == weyl.double_coset_min(h_std, stab, stab)
                    faces.append(face)
    # one call per face from admissible_faces, one per distinct simplex from
    # the frame memo, which the key memo reads
    simplices = {face.simplex for face in faces}
    assert len(faces) == 1006 and len(calls) == len(faces) + len(simplices) == 1006 + 14
    for source, target, d in calls:
        g = solve(source, target, d)
        assert g is not None and g == solve_face_map_search(source, target, d)


def shifted_double_coset(face, r):
    """Oracle: the face's double coset W1 (g^-1 h g iota^-r) W2 with W2 the
    stabilizer of iota^r . omega_I, as the order and dimensions once read it."""
    d = len(face.simplex[0])
    omega_i, g, _, _ = adm._standard_frame(face.simplex)
    h_std = weyl.compose(weyl.compose(weyl.invert(g), face.coset), g)
    w1 = weyl.face_stabilizer(omega_i)
    w2 = weyl.face_stabilizer([canonicalize(weyl.act(iota_pow(d, r), om)) for om in omega_i])
    return weyl.compose(h_std, iota_pow(d, -r)), w1, w2


def test_face_keys_equal_the_iota_shifted_double_cosets_on_configs():
    # the key times iota^-r is the shifted minimum, with the same minmax
    # length, and pairs of faces of one simplex compare alike
    paths, count = sorted(CONFIGS.glob("*.json")), 0
    assert len(paths) == 12
    for path in paths:
        quiver = qv.Quiver(Configuration.from_json(path.read_text()))
        for simplex in quiver.simplices:
            for r in range(1, quiver.d):
                faces = adm.admissible_faces(simplex, r)
                keys = [adm._standard_key(face) for face in faces]
                shifted = [shifted_double_coset(face, r) for face in faces]
                old = [weyl.double_coset_min(*coset) for coset in shifted]
                shift = iota_pow(quiver.d, -r)
                for face, key, old_key, coset in zip(faces, keys, old, shifted):
                    assert old_key == weyl.compose(key, shift)
                    assert adm.stratum_dimension(face) == weyl.length(weyl.minmax_rep(*coset))
                data = [weyl.bruhat_data(k) for k in keys]
                old_data = [weyl.bruhat_data(k) for k in old]
                for i, j in itertools.product(range(len(faces)), repeat=2):
                    assert weyl.bruhat_leq_data(data[i], data[j]) == weyl.bruhat_leq_data(old_data[i], old_data[j])
                count += len(faces)
    assert count == 1006


@st.composite
def face_map_pairs(draw):
    """Source vectors and a target: half the images under a random extended
    element, half unrelated vectors, so both outcomes occur."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, d))
    vectors = st.lists(st.integers(0, 2), min_size=d, max_size=d).map(tuple)
    source = draw(st.lists(vectors, min_size=n, max_size=n))
    if draw(st.booleans()):
        sigma = tuple(draw(st.permutations(range(1, d + 1))))
        g = weyl.WeylElement(sigma, tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))))
        target = [weyl.act(g, v) for v in source]
    else:
        target = draw(st.lists(vectors, min_size=n, max_size=n))
    return source, target, d


@settings(max_examples=500, derandomize=True, database=None)
@given(face_map_pairs())
def test_solve_face_map_matches_search_on_random_pairs(pair):
    assert adm._solve_face_map(*pair) == solve_face_map_search(*pair)


NO_FACE_MAP = """
    import sys
    import traceback
    from pathlib import Path
    from linkedgrass import admissible

    print("optimize", sys.flags.optimize)
    face = admissible.admissible_faces(admissible.standard_alcove(3), 1)[0]
    admissible._solve_face_map = lambda source, target, d: None
    for call in (lambda: admissible.admissible_faces(face.simplex, 1),
                 lambda: admissible._standard_key(face)):
        try:
            call()
        except AssertionError as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            print(type(exc).__name__, Path(frame.filename).name, frame.name)
"""


def test_missing_face_map_raises_under_python_O():
    src = Path(adm.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(NO_FACE_MAP)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    assert result.stdout == (
        "optimize 1\n"
        "InvariantError admissible.py extend\n"
        "InvariantError admissible.py _standard_frame\n"
    )


def stratum_rank_vector_oracle(collection, quiver):
    """The body `stratum_rank_vector` had before `Quiver.hull_plan`: each
    in-simplex rank counted over the map's support, then every other pair
    copied from its hull neighbour in rounds until none is left."""
    from linkedgrass.lattice import convex_hull_pair

    data = {(v, v): collection.r for v in quiver.vertices}
    for face in collection.faces:
        for u, eps in zip(face.simplex, increments(face)):
            for v in face.simplex:
                if u != v:
                    value = sum(1 for k in quiver.trans[(u, v)].support if eps[k - 1] == 1)
                    assert data.setdefault((u, v), value) == value
    remaining = [(u, v) for u in quiver.vertices for v in quiver.vertices if (u, v) not in data]
    while remaining:
        for u, v in remaining:
            w = convex_hull_pair(u, v)[1]
            if (u, w) in data:
                data[(u, v)] = data[(u, w)]
        assert len(data) > len(quiver.vertices) ** 2 - len(remaining)
        remaining = [pair for pair in remaining if pair not in data]
    return qv.RankVector.from_dict(data)


def test_stratum_rank_vector_matches_old_hull_propagation_on_configs():
    paths, count = sorted(CONFIGS.glob("*.json")), 0
    assert len(paths) == 12
    for path in paths:
        quiver = qv.Quiver(Configuration.from_json(path.read_text()))
        assert quiver.hull_plan is quiver.hull_plan
        for r in range(1, quiver.d):
            for col in adm.enumerate_admissible_collections(quiver, r):
                assert adm.stratum_rank_vector(col, quiver) == stratum_rank_vector_oracle(col, quiver)
                count += 1
    assert count == 811


GLUE_ERRORS = """
    import itertools
    import sys
    import traceback
    from pathlib import Path
    from linkedgrass import admissible, quiver
    from linkedgrass.lattice import configuration

    print("optimize", sys.flags.optimize)
    config = configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)])  # two triangles on an edge
    q = quiver.Quiver(config)
    cols = admissible.enumerate_admissible_collections(q, 1)
    unglued = (
        admissible.AdmissibleCollection(1, (a.faces[0], b.faces[1])) for a, b in itertools.product(cols, repeat=2)
    )
    q.hull_plan  # planned before the hull is broken: no pair resolves after
    quiver.convex_hull_pair = lambda u, v: [u, v]
    for call in (lambda: [admissible.stratum_rank_vector(c, q) for c in unglued],
                 lambda: quiver.Quiver(config).hull_plan):
        try:
            call()
        except AssertionError as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            print(type(exc).__name__, Path(frame.filename).name, frame.name, exc)
"""


def test_stratum_rank_vector_checks_survive_python_O():
    src = Path(adm.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(GLUE_ERRORS)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    assert result.stdout == (
        "optimize 1\n"
        "InvariantError admissible.py stratum_rank_vector inconsistent glued rank at shared pair\n"
        "InvariantError quiver.py hull_plan hull propagation stalled\n"
    )
