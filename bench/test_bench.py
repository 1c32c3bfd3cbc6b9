"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They cover seeded job selection, the per-job checks and recorded digests,
the tracer, and that the entry point emits exactly the metric names that
BENCHMARK.json declares.  The end-to-end cases spawn child interpreters
and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads((HERE / "digests.json").read_text())


def ids(jobs):
    return [job.id for job in jobs]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_order(workload):
    assert ids(wl.job_list(workload, 5)) == ids(wl.job_list(workload, 5))
    assert ids(wl.job_list(workload, 5)) != ids(wl.job_list(workload, 6))
    assert sorted(ids(wl.job_list(workload, 5))) == sorted(set(ids(wl.job_list(workload, 5))))


def test_job_counts_and_pools():
    assert len(wl.job_list("weyl-strata", 0)) == 16
    assert len(wl.job_list("grassmannian-enum", 0)) == 21
    jobs = wl.job_list("quiver-decompose", 0)
    kinds = [job.kind for job in jobs]
    assert kinds.count("decompose") == 2100
    assert kinds.count("deform") == 248
    for workload in wl.WORKLOADS:
        assert set(ids(wl.full_pool(workload))) <= set(DIGESTS)


def config_vertices(config):
    return [tuple(v) for v in json.loads((wl.CONFIGS / f"{config}.json").read_text())["vertices"]]


def test_frozen_instances_equal_the_verification_lists():
    from linkedgrass import verify

    frozen = sorted((config_vertices(c), r) for c, r in wl.QUIVER_INSTANCES)
    assert frozen == sorted(verify.WEAKLY_INDEPENDENT_INSTANCES.values())
    assert config_vertices("shared-edge-triangles") == verify.SHARED_EDGE_TRIANGLES


def test_other_seed_draws_other_subrepresentations():
    first = {j.id for j in wl.job_list("quiver-decompose", 1) if j.kind == "decompose"}
    second = {j.id for j in wl.job_list("quiver-decompose", 2) if j.kind == "decompose"}
    assert first != second


def run_jobs(jobs):
    out = {}
    for item in wl.prepare(jobs):
        ok, value = item.check(item.run())
        out[item.job.id] = (ok, value)
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_checks_pass_and_digests_match_on_any_seed(seed):
    jobs = wl.job_list("quiver-decompose", seed)[:80]
    cheap = {"alcove-d3", "alcove-d4", "path-d3", "triangle-d3", "shared-edge-triangles"}
    jobs += [j for j in wl.job_list("weyl-strata", seed) if j.config in cheap]
    jobs += [j for j in wl.job_list("grassmannian-enum", seed) if j.config in cheap]
    results = run_jobs(jobs)
    assert all(ok for ok, _ in results.values())
    assert {k: v for k, (_, v) in results.items()} == {k: DIGESTS[k] for k in results}
    assert run_jobs(jobs) == results


def test_wrong_output_fails_its_check():
    job = next(j for j in wl.full_pool("weyl-strata") if j.id == "admissible alcove-d3 --r 1")
    (item,) = wl.prepare([job])
    code, text = item.run()
    report = json.loads(text)
    report["top_count"] += 1
    ok, value = item.check((code, json.dumps(report)))
    assert not ok and value != DIGESTS[job.id]


def test_tracer_wraps_every_binding_and_restores():
    from linkedgrass import admissible, gf, quiver

    original = quiver.generated
    tracer = Tracer()
    tracer.install([(quiver, "generated", "quiver.generated"), (gf, "rref", "gf.rref")])
    assert admissible.generated is quiver.generated is not original
    (item,) = wl.prepare([wl.full_pool("quiver-decompose")[1]])
    item.run()
    tracer.uninstall()
    assert quiver.generated is original and admissible.generated is original
    totals = tracer.totals()
    assert totals["quiver.generated"]["calls"] > 0
    assert tracer.edge("quiver.generated", "gf.rref").calls > 0
    for edge in tracer.edges.values():
        assert 0 <= edge.self_s <= edge.total_s + 1e-9


def test_tracer_counts_generator_yields_and_keeps_outputs():
    from linkedgrass import quiver as qv
    from linkedgrass.lattice import configuration

    q = qv.Quiver(configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0)]))
    plain = list(qv.enumerate_subreps(q, 1, 2))
    tracer = Tracer()
    tracer.install([(qv, "enumerate_subreps", "quiver.enumerate_subreps")])
    traced = list(qv.enumerate_subreps(q, 1, 2))
    tracer.uninstall()
    row = tracer.totals()["quiver.enumerate_subreps"]
    assert traced == plain
    assert row["calls"] == 1 and row["measured"] == len(plain)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_entry_point_emits_declared_metrics(trace, section):
    proc = run_bench("--workload", "grassmannian-enum", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 21
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "1":
        assert result["metrics"]["weyl.length.calls"]["value"] > 0


def test_traced_quiver_workload_never_calls_weyl():
    proc = run_bench("--workload", "quiver-decompose", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert all(metrics[f"weyl.{n}.calls"]["value"] == 0 for n in child.TRACED["weyl"])
    assert "deform: p50" in proc.stdout and "over 248 jobs" in proc.stdout
    record = json.loads((HERE / "results" / "quiver-decompose-seed4-trace1.json").read_text())
    assert record["latency"]["decompose"]["samples"] == 2100
    assert record["latency"]["deform"]["samples"] == 248


def test_fails_without_library_sources():
    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "weyl-strata", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
