"""Steadiness check: repeat `run.py` on every workload and summarize.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--same-seed]

Runs `run.py --trace 0` RUNS times on every workload of BENCHMARK.json,
interleaved (one run of each workload in turn), so that drift of the
machine falls on all workloads alike.  By default run i uses seed
FIRST_SEED + i, as an acceptance check with ten seeds does; the spread then
holds both run-to-run noise and the differences between the seeds' inputs.
With `--same-seed` every run uses FIRST_SEED, so the spread is run-to-run
noise alone.

For each end-to-end metric it prints the median, the first and third
quartiles (`statistics.quantiles(n=4)`) and the spread, which is the
interquartile distance as a share of the median, next to the metric's
bound.  `--runs 1` prints every end-to-end metric of every workload once.
The summary is also written to `bench/results/steady-<seeds>.json`.  Exits 1
if any run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [args.first_seed + (0 if args.same_seed else i) for i in range(args.runs)]
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    all_correct = True
    for seed in seeds:
        for workload in workloads:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                all_correct = False
                continue
            result = json.loads(lines[-1])
            all_correct = all_correct and result["correct"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    summary = {"seeds": seeds}
    for workload in workloads:
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            vals = values[workload][metric["name"]]
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[workload][metric["name"]] = {
                "values": vals, "q1": q1, "median": median, "q3": q3,
                "spread": spread, "bound": metric["bound"],
            }
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(
                f"  {workload:18s} {metric['name']:12s} median={median:.4g} {metric['unit']} "
                f"q1={q1:.4g} q3={q3:.4g} spread={spread:.3f} bound={metric['bound']} {flag}"
            )
    label = f"same{seeds[0]}" if args.same_seed else f"seeds{seeds[0]}-{seeds[-1]}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"steady-{label}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
