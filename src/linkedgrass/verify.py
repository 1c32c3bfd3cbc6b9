"""Named verification suites over small instances.

Each suite exercises one cluster of structural facts (Weyl arithmetic,
admissibility, stratum counts and orders, decomposition, degeneration,
realizability, the dimension-one stratification, multidegree twisting) and
returns a report dict with a `passed` flag, parameters, and per-check
details.  The command line (`linkedgrass verify`) and the acceptance tests
both run these.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from typing import Sequence

from . import admissible as adm
from . import gf
from . import multidegree as md
from . import quiver as qv
from . import weyl
from .lattice import configuration

# weakly independent instances with d <= 4 and few vertices, shared by the
# quiver-side suites
WEAKLY_INDEPENDENT_INSTANCES: dict[str, tuple[list[tuple[int, ...]], int]] = {
    "segment-d2": ([(0, 0), (1, 0)], 1),
    "triangle-d3": ([(0, 0, 0), (1, 0, 0), (1, 1, 0)], 1),
    "triangle-d3-r2": ([(0, 0, 0), (1, 0, 0), (1, 1, 0)], 2),
    "path-d2": ([(0, 0), (1, 0), (2, 0)], 1),
    "alcove-d4-r2": ([(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)], 2),
    "branched-d4": ([(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)], 1),
    "branched-d4-r2": ([(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)], 2),
}

# not weakly independent: two triangles glued along an edge
SHARED_EDGE_TRIANGLES = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)]


def _report(name: str, passed: bool, **details) -> dict:
    out = {"suite": name, "passed": bool(passed)}
    out.update(details)
    return out


def _quiver(vertices) -> qv.Quiver:
    return qv.Quiver(configuration(vertices))


def suite_weyl(d: int = 4, seed: int = 0, trials: int = 400) -> dict:
    """Length formula on block translations, parahoric orders, group axioms."""
    checks = {}
    ok = True
    for dd in range(2, d + 1):
        for r in range(1, dd):
            got = weyl.length(weyl.translation(tuple([1] * r + [0] * (dd - r))))
            if got != r * (dd - r):
                ok = False
                checks[f"length-d{dd}-r{r}"] = got
    checks["block_translation_lengths"] = ok

    omega = adm.standard_alcove(4)
    orders = (
        len(weyl.face_stabilizer(omega)),
        len(weyl.face_stabilizer(omega[:3])),
        len(weyl.face_stabilizer([omega[0]])),
    )
    checks["parahoric_orders"] = orders
    parahoric_ok = orders == (1, 2, 24)

    rng = random.Random(seed)
    axiom_ok = True
    for _ in range(trials):
        dd = rng.randint(2, min(d, 6))

        def rand_elem():
            sigma = list(range(1, dd + 1))
            rng.shuffle(sigma)
            return weyl.WeylElement(
                tuple(sigma), tuple(rng.randint(-2, 2) for _ in range(dd))
            )

        g, h, k = rand_elem(), rand_elem(), rand_elem()
        a = tuple(rng.randint(-3, 3) for _ in range(dd))
        if weyl.compose(weyl.compose(g, h), k) != weyl.compose(g, weyl.compose(h, k)):
            axiom_ok = False
        if weyl.compose(g, weyl.invert(g)) != weyl.identity(dd):
            axiom_ok = False
        if weyl.act(weyl.compose(g, h), a) != weyl.act(g, weyl.act(h, a)):
            axiom_ok = False
    checks["group_axioms"] = axiom_ok

    return _report("weyl", ok and parahoric_ok and axiom_ok, d=d, checks=checks)


def suite_admissibility(d: int = 3) -> dict:
    """Adm(mu) = Perm(mu) on the standard alcove, and on every standard face
    omega_I with 0 in I the keys of the admissible faces are the double
    cosets W_I x W_I, x in Adm(mu), for 2 <= d' <= d and 0 < r < d'."""
    results = {}
    passed = True
    for dd in range(2, d + 1):
        omega = adm.standard_alcove(dd)
        faces = [[omega[i] for i in (0, *rest)] for k in range(dd) for rest in itertools.combinations(range(1, dd), k)]
        for r in range(1, dd):
            admissible = adm.admissible_set(dd, r)
            perm = {f.coset for f in adm.admissible_faces(omega, r)}
            failed = []
            for face in faces:
                group = weyl.face_stabilizer(face)
                keys = {weyl.double_coset_min(f.coset, group, group) for f in adm.admissible_faces(face, r)}
                if keys != {weyl.double_coset_min(x, group, group) for x in admissible}:
                    failed.append(str(face))
            ok = admissible == perm and not failed
            entry = {"adm": len(admissible), "perm": len(perm), "faces": len(faces), "ok": ok}
            if not ok:
                entry["adm_not_perm"] = sorted(map(str, admissible - perm))
                entry["perm_not_adm"] = sorted(map(str, perm - admissible))
                entry["faces_failed"] = failed
            results[f"d{dd}-r{r}"] = entry
            passed = passed and ok
    return _report("admissibility", passed, d=d, checks=results)


def suite_components(d: int = 4) -> dict:
    """Top stratum count C(d, r) and dimension r(d-r) on standard alcoves."""
    results = {}
    passed = True
    for dd in range(2, d + 1):
        quiver = _quiver(adm.standard_alcove(dd))
        for r in range(1, dd):
            tops = adm.top_strata(adm.enumerate_admissible_collections(quiver, r))
            dims = {adm.stratum_dimension(c.faces[0]) for c in tops}
            ok = len(tops) == math.comb(dd, r) and dims == {r * (dd - r)}
            results[f"d{dd}-r{r}"] = {"tops": len(tops), "dims": sorted(dims), "ok": ok}
            passed = passed and ok
    return _report("components", passed, d=d, checks=results)


def _order_equivalence(quiver: qv.Quiver, r: int) -> bool:
    table = adm.strata(quiver, r)
    return all(
        adm.generalized_bruhat_leq(x.collection, y.collection) == x.rank.leq(y.rank)
        for x, y in itertools.product(table, repeat=2)
    )


def suite_orders(d: int = 4) -> dict:
    """Generalized Bruhat order equals componentwise rank order."""
    results = {}
    passed = True
    instances = []
    for dd in range(2, d + 1):
        omega = adm.standard_alcove(dd)
        instances.append((f"alcove-d{dd}", omega, 1))
        if dd > 2:
            instances.append((f"face-d{dd}", omega[: dd - 1], 1))
        if dd >= 3:
            instances.append((f"alcove-d{dd}-r2", omega, 2))
    instances.append(("path-d2", [(0, 0), (1, 0), (2, 0)], 1))
    instances.append(("path-d3", [(0, 0, 0), (1, 1, 0), (2, 2, 0)], 1))
    instances.append(
        ("branched-d4", [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)], 1)
    )
    for name, verts, r in instances:
        ok = _order_equivalence(_quiver(verts), r)
        results[name] = ok
        passed = passed and ok
    return _report("orders", passed, d=d, checks=results)


def suite_strata(ps: Sequence[int] = (2, 3), budget: int = 10_000_000) -> dict:
    """Enumerated rank vectors equal the realizable stratum labels."""
    results = {}
    passed = True
    for name, (verts, r) in WEAKLY_INDEPENDENT_INSTANCES.items():
        quiver = _quiver(verts)
        table = adm.strata(quiver, r)
        labels = {s.rank for s in table}
        realizable = {s.rank for s in table if s.realizable}
        per_p = {p: set(qv.rank_classes(quiver, r, p, budget)) for p in ps}
        stable = all(per_p[p] == per_p[ps[0]] for p in ps)
        contained = all(per_p[p] <= labels for p in ps)
        exact = all(per_p[p] == realizable for p in ps)
        ok = stable and contained and exact
        results[name] = {
            "labels": len(labels),
            "realizable": len(realizable),
            "enumerated": {p: len(v) for p, v in per_p.items()},
            "ok": ok,
        }
        passed = passed and ok
    # not weakly independent: enumerated set must be a p-stable subset of labels
    quiver = _quiver(SHARED_EDGE_TRIANGLES)
    labels = {s.rank for s in adm.strata(quiver, 1)}
    per_p = {p: set(qv.rank_classes(quiver, 1, p, budget)) for p in ps}
    ok = all(v <= labels for v in per_p.values()) and all(
        per_p[p] == per_p[ps[0]] for p in ps
    )
    results["shared-edge-triangles"] = {
        "labels": len(labels),
        "enumerated": {p: len(v) for p, v in per_p.items()},
        "ok": ok,
    }
    passed = passed and ok
    return _report("strata", passed, checks=results)


def _random_subrep(quiver: qv.Quiver, p: int, rng: random.Random) -> qv.SubRep:
    seeds = []
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(quiver.vertices)
        vec = tuple(rng.randrange(p) for _ in range(quiver.d))
        if not gf.is_zero(vec):
            seeds.append((v, vec))
    return qv.generated(quiver, seeds, p)


def suite_decomposition(trials: int = 1000, seed: int = 7, ps: Sequence[int] = (2, 3)) -> dict:
    """Random sub-representations decompose, reassemble, and match the
    multiplicity formulas."""
    results = {}
    passed = True
    for name, (verts, _) in WEAKLY_INDEPENDENT_INSTANCES.items():
        quiver = _quiver(verts)
        rng = random.Random(seed)
        failures = 0
        count = 0
        per_p = max(1, trials // len(ps))
        for p in ps:
            for _ in range(per_p):
                M = _random_subrep(quiver, p, rng)
                count += 1
                summands = qv.decompose(M, quiver)
                types = qv.type_multiset(summands, quiver, p)
                failures += qv.types_from_rank(qv.rank_vector(M, quiver), quiver) != types
        results[name] = {"trials": count, "failures": failures}
        passed = passed and failures == 0
    return _report("decomposition", passed, trials=trials, seed=seed, checks=results)


def suite_degeneration(ps: Sequence[int] = (2, 3), budget: int = 10_000_000) -> dict:
    """Whenever ranks are comparable, deformation chains reach the target,
    each step realizing its predicted increment exactly."""
    results = {}
    passed = True
    for name, (verts, r) in WEAKLY_INDEPENDENT_INSTANCES.items():
        quiver = _quiver(verts)
        for p in ps:
            classes = qv.rank_classes(quiver, r, p, budget)
            chains = failures = 0
            for phi, (_, M) in classes.items():
                for phi2 in classes:
                    if phi != phi2 and phi.leq(phi2):
                        chains += 1
                        try:
                            qv.deform_chain(M, quiver, phi2)
                        except qv.DeformationError:
                            failures += 1
            results[f"{name}-p{p}"] = {"chains": chains, "failures": failures}
            passed = passed and failures == 0
    return _report("degeneration", passed, checks=results)


def suite_projective(ps: Sequence[int] = (2, 3), budget: int = 10_000_000) -> dict:
    """deform_step returns none exactly on the maximal rank-vector classes."""
    results = {}
    passed = True
    for name, (verts, r) in WEAKLY_INDEPENDENT_INSTANCES.items():
        quiver = _quiver(verts)
        for p in ps:
            classes = qv.rank_classes(quiver, r, p, budget)
            phis = list(classes)
            mismatches = 0
            for phi, (_, M) in classes.items():
                is_max = not any(phi != o and phi.leq(o) for o in phis)
                step = qv.deform_step(M, quiver)
                if (step is None) != is_max:
                    mismatches += 1
            results[f"{name}-p{p}"] = {"classes": len(phis), "mismatches": mismatches}
            passed = passed and mismatches == 0
    return _report("projective", passed, checks=results)


# simplices with at most three vertices and their dimensions along the cycle
SIMPLEX_INSTANCES = [
    ([(0, 0), (1, 0)], (1, 1)),
    ([(0, 0), (1, 0)], (1, 0)),
    ([(0, 0, 0), (1, 0, 0), (1, 1, 0)], (1, 1, 1)),
    ([(0, 0, 0), (1, 1, 0)], (2, 1)),
    ([(0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)], (2, 2, 2)),
    ([(0, 0, 0, 0), (1, 1, 1, 0)], (2, 2)),
    ([(0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 1, 1)], (2, 1, 2)),
]


def suite_simplex(p: int = 2) -> dict:
    """`rank_vector_realizable` equals the brute-force rank image over every
    candidate rank on simplices with at most three vertices and entries at
    most two."""
    results = {}
    passed = True
    for verts, dims in SIMPLEX_INSTANCES:
        quiver = _quiver(verts)
        dim_map = dict(zip(quiver.simplices[0], dims))
        image = set(qv.rank_classes(quiver, dim_map, p))
        offdiag = [(u, v) for u in dim_map for v in dim_map if u != v]
        diagonal = {(v, v): k for v, k in dim_map.items()}
        accepted = set()
        for vals in itertools.product(*[range(min(dim_map[u], dim_map[v]) + 1) for u, v in offdiag]):
            phi = qv.RankVector.from_dict({**diagonal, **dict(zip(offdiag, vals))})
            if adm.rank_vector_realizable(phi, quiver):
                accepted.add(phi)
        ok = image == accepted
        results[str((verts, dims))] = {
            "brute": len(image),
            "accepted": len(accepted),
            "ok": ok,
        }
        passed = passed and ok
    return _report("simplex", passed, p=p, checks=results)


DIM1_INSTANCES = [
    [(0, 0), (1, 0)],
    [(0, 0, 0), (1, 0, 0), (1, 1, 0)],
    [(0, 0), (1, 0), (2, 0)],
    [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)],
    SHARED_EDGE_TRIANGLES,
    [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)],
]


def suite_dim1(p: int = 2) -> dict:
    """Dimension-one strata equal faces; rank order is reverse containment."""
    results = {}
    passed = True
    for verts in DIM1_INSTANCES:
        quiver = _quiver(verts)
        report = adm.r1_order_check(quiver, p)
        constructed = all(
            adm.r1_face_of(adm.r1_rep_of_face(quiver, tuple(sorted(f)), p), quiver)[0]
            == frozenset(f)
            for f in adm.complex_faces(quiver)
        )
        ok = report["ok"] and constructed
        report["constructed"] = constructed
        results[str(verts)] = report
        passed = passed and ok
    return _report("dim1", passed, p=p, checks=results)


def suite_kn(n: int = 6) -> dict:
    """Complete-graph multidegree family for all sizes up to n."""
    results = {}
    passed = True
    for k in range(2, n + 1):
        rep = md.kn_instance(k)
        results[f"K{k}"] = {
            "formulas": rep.formulas_match,
            "concentrated": rep.concentrated,
            "vbar": rep.vbar_matches,
            "nested": rep.nested_chain,
        }
        passed = passed and rep.ok
    return _report("kn", passed, n=n, checks=results)


SUITES = {
    "weyl": suite_weyl,
    "admissibility": suite_admissibility,
    "components": suite_components,
    "orders": suite_orders,
    "strata": suite_strata,
    "decomposition": suite_decomposition,
    "degeneration": suite_degeneration,
    "projective": suite_projective,
    "simplex": suite_simplex,
    "dim1": suite_dim1,
    "kn": suite_kn,
}


def run_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    unread = set(kwargs).difference(*(inspect.signature(fn).parameters for fn in SUITES.values()))
    if unread:
        raise TypeError(f"run_suite() got keywords that no suite reads: {', '.join(sorted(unread))}")
    params = inspect.signature(SUITES[name]).parameters
    return SUITES[name](**{k: v for k, v in kwargs.items() if v is not None and k in params})
