"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All comparisons are exact (integer combinatorics); the stated wall-clock
budgets are asserted where a criterion carries one.
"""

import time

from linkedgrass import verify as vf
from linkedgrass import weyl
from linkedgrass.admissible import standard_alcove


def run(criterion, label, name, limit=None, **kwargs):
    start = time.time()
    report = vf.run_suite(name, **kwargs)
    elapsed = time.time() - start
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{status} criterion {criterion} ({label}): {elapsed:.1f}s")
    assert report["passed"], report
    if limit is not None:
        assert elapsed < limit, f"criterion {criterion} exceeded {limit}s"
    return report


def test_criterion_01_block_translation_lengths():
    start = time.time()
    for d in range(2, 6):
        for r in range(1, d):
            got = weyl.length(weyl.translation(tuple([1] * r + [0] * (d - r))))
            assert got == r * (d - r), (d, r, got)
    elapsed = time.time() - start
    print(f"PASS criterion 1 (weyl lengths d<=5): {elapsed:.1f}s")
    assert elapsed < 10


def test_criterion_02_parahoric_orders():
    start = time.time()
    omega = standard_alcove(4)
    assert len(weyl.face_stabilizer(omega)) == 1
    assert len(weyl.face_stabilizer(omega[:3])) == 2
    print(f"PASS criterion 2 (parahoric orders): {time.time() - start:.1f}s")


def test_criterion_03_admissibility_equivalence():
    run(3, "admissibility criteria agree", "admissibility", limit=120, d=3)


def test_criterion_04_component_count_and_dimension():
    run(4, "components C(d,r), dim r(d-r)", "components", d=4)


def test_criterion_05_order_equivalence():
    run(5, "generalized Bruhat = rank order", "orders", d=4)


def test_criterion_06_stratum_rank_bijection():
    run(6, "stratum/rank bijection", "strata", limit=300, ps=(2, 3))


def test_criterion_07_decomposition():
    report = run(7, "decomposition + multiplicities", "decomposition", trials=1000, seed=7)
    assert all(v["failures"] == 0 for v in report["checks"].values())


def test_criterion_08_degeneration_chains():
    report = run(8, "degeneration witnesses", "degeneration", ps=(2, 3))
    assert all(v["failures"] == 0 for v in report["checks"].values())


def test_criterion_09_simplex_realizability():
    run(9, "simplex rank realizability", "simplex", p=2)


def test_criterion_10_dimension_one():
    run(10, "dimension-one strata", "dim1", p=2)


def test_criterion_11_kn_example():
    run(11, "complete-graph multidegrees", "kn", limit=10, n=6)


def test_criterion_12_projective_iff_maximal():
    report = run(12, "projective iff maximal rank", "projective", ps=(2, 3))
    assert all(v["mismatches"] == 0 for v in report["checks"].values())
