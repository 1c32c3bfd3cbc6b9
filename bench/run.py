"""Benchmark entry point: time one workload in fresh child interpreters.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in `workloads.py`; metric names and units come from
`BENCHMARK.json` at the repository root.  Each run of a workload is one
fresh, single-threaded `python3` child (`child.py`, no `-O`), so the
library's memo tables start empty and fill across the run's jobs, as they
do in one `linkedgrass verify all`.  Jobs run one after another: a closed
loop with one client.

`--trace 0` starts runs back to back while the next one is expected to end
within S seconds (at least one run), then adds set-up-only children until
there are SETUP_SAMPLES set-up samples, and reports the end-to-end metrics:

* wall_s      -- median over runs of start of first job to end of last;
* setup_s     -- median over children of spawn to start of first job
                 (interpreter, `import linkedgrass`, building inputs);
* peak_rss_mb -- median over runs of the child's maximum RSS.

`--trace 1` makes one untraced and one traced run and reports the per-layer
metrics: call counts and self times of the traced functions (see
`child.TRACED`), the ratios, per-kind job latency percentiles of the
untraced run, and the tracing overhead (traced minus untraced wall_s).
The per-kind sample counts are printed and kept in the record, not
reported as metrics: they are fixed by the workload.

A warm-up set-up-only child runs first and is not counted, so that
byte-compilation of a fresh checkout is not timed.  Every job's output is
checked and its digest compared with `digests.json`; any failure makes the
result `correct: false` and the exit code 1.  The last line of standard
output is the JSON result; a fuller record with machine facts goes to
`bench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170
SETUP_SAMPLES = 11


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, *flags: str, deadline: float) -> tuple[float, dict]:
    """Run one child; returns its spawn time and its parsed report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONOPTIMIZE", None)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), *flags]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {' '.join(flags) or 'run'} passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    return spawned_at, json.loads(out.decode().strip().splitlines()[-1])


def percentile_ms(samples: list[float], q: int) -> float:
    """q-th percentile (q in 10..90 by tens) of seconds, in ms; 0 without samples."""
    if len(samples) < 2:
        return 1e3 * samples[0] if samples else 0.0
    return 1e3 * statistics.quantiles(samples, n=10)[q // 10 - 1]


def kind_latencies(runs: list[dict]) -> dict[str, dict]:
    """Per-kind p50/p90 job latency of quiver-decompose, with sample counts."""
    out = {}
    for kind in ("decompose", "deform"):
        samples = [job[2] for run in runs for job in run["jobs"] if job[1] == kind]
        out[kind] = {
            "p50_ms": percentile_ms(samples, 50),
            "p90_ms": percentile_ms(samples, 90),
            "samples": len(samples),
        }
    return out


def failures(runs: list[dict], digests: dict[str, str]) -> list[str]:
    bad = []
    for run in runs:
        for job_id, _, _, ok, value, error in run["jobs"]:
            if not ok:
                bad.append(f"{job_id}: {error or 'check failed'}")
            elif digests.get(job_id) != value:
                bad.append(f"{job_id}: digest {value} != recorded {digests.get(job_id)}")
    return bad


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list[dict], dict, dict]:
    runs, setups = [], []
    start = time.monotonic()
    last = 0.0  # duration of the previous child, the estimate for the next
    while not runs or time.monotonic() - start + last <= seconds:
        spawned_at, report = spawn(workload, seed, deadline=deadline)
        last = time.monotonic() - spawned_at
        setups.append(report["first_job_at"] - spawned_at)
        runs.append(report)
    while len(setups) < SETUP_SAMPLES:
        spawned_at, report = spawn(workload, seed, "--setup-only", deadline=deadline)
        setups.append(report["first_job_at"] - spawned_at)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    detail = {
        "runs": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")} for r in runs],
        "setup_samples_s": setups,
        "latency": kind_latencies(runs),
    }
    return runs, values, detail


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[list[dict], dict, dict]:
    _, plain = spawn(workload, seed, deadline=deadline)
    _, traced = spawn(workload, seed, "--trace", deadline=deadline)
    mismatched = [
        a[0] for a, b in zip(plain["jobs"], traced["jobs"]) if a[0] != b[0] or a[4] != b[4]
    ]
    if mismatched:
        raise BenchError(f"traced outputs differ from untraced ones: {mismatched[:3]}")
    latency = kind_latencies([plain])
    values = dict(traced["trace"])
    values.update({f"{kind}.{q}": row[q] for kind, row in latency.items() for q in ("p50_ms", "p90_ms")})
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"], "latency": latency}
    return [plain, traced], values, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (ROOT / "src" / "linkedgrass" / "__init__.py").is_file():
            raise BenchError(f"no library sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        declared = spec["per_layer" if args.trace else "end_to_end"]
        digests = json.loads((HERE / "digests.json").read_text())

        spawn(args.workload, args.seed, "--setup-only", deadline=deadline)  # warm-up
        if args.trace:
            runs, values, detail = measure_traced(args.workload, args.seed, deadline)
        else:
            runs, values, detail = measure(args.workload, args.seed, args.seconds, deadline)
        names = [m["name"] for m in declared]
        if sorted(values) != sorted(names):
            raise BenchError(f"metrics {sorted(set(values) ^ set(names))} not both produced and declared")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    bad = failures(runs, digests)
    attempted = sum(len(r["jobs"]) for r in runs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": not bad, "attempted": attempted, "failed": len(bad), "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "jobs_per_run": len(runs[0]["jobs"]),
        "samples_per_kind": dict(Counter(job[1] for run in runs for job in run["jobs"])),
        "failed_frac": len(bad) / attempted,
        **detail,
        "failures": bad[:20],
        "result": result,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for line in bad[:20]:
        print(f"FAILED {line}")
    kind = "untraced and traced runs" if args.trace else "runs"
    print(f"{args.workload} seed={args.seed}: {len(runs)} {kind} x {record['jobs_per_run']} jobs")
    for kind, row in detail["latency"].items():
        if row["samples"]:
            print(f"  {kind}: p50 {row['p50_ms']:.4g} ms, p90 {row['p90_ms']:.4g} ms over {row['samples']} jobs")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
