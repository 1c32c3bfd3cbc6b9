"""One fresh-interpreter run of a benchmark workload.

    python3 bench/child.py --workload NAME --seed N [--trace] [--setup-only]

Imports `linkedgrass` from the `src/` directory next to this one (and
refuses any other copy), builds the seed's job inputs, runs the jobs one
after another and prints one JSON object: the monotonic time at which the
first job started, the wall time of the job loop, the peak RSS at the end
of the job loop (before the checks allocate anything), and per job
its id, kind, latency, check result and output digest.  With `--trace` the
tracer is installed before the inputs are built and removed after the last
job, so the checks that follow are not traced.  With `--setup-only` it
stops before the first job.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads as wl
from tracer import Tracer

SRC = wl.HERE.parent / "src"

# traced functions by module; each span is named `<module>.<function>`
TRACED = {
    "gf": ["rref", "intersect", "complement", "contains", "superspaces"],
    "weyl": ["length", "compose", "double_coset_min", "minmax_rep", "bruhat_leq", "face_stabilizer"],
    "quiver": [
        "Quiver", "generated", "rank_vector", "decompose", "reassemble",
        "deform_step", "deform_chain", "enumerate_subreps",
    ],
    "admissible": [
        "enumerate_admissible_collections", "stratum_rank_vector", "top_strata",
        "generalized_bruhat_leq", "stratum_dimension", "rank_vector_realizable",
    ],
    "lattice": ["is_convex", "maximal_simplices", "transition"],
    "independence": ["weakly_independent"],
    "cli": ["main"],
}


def import_library():
    sys.path.insert(0, str(SRC))
    import linkedgrass

    if Path(linkedgrass.__file__).resolve().parent != SRC / "linkedgrass":
        raise ImportError(f"linkedgrass imported from {linkedgrass.__file__}, not {SRC}")
    return linkedgrass


def last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


def trace_summary(tracer: Tracer, superspaces_info) -> dict:
    totals = tracer.totals()
    out = {}
    for module, names in TRACED.items():
        module_self = 0.0
        for name in names:
            row = totals.get(f"{module}.{name}", {"calls": 0, "self_s": 0.0, "measured": 0})
            module_self += row["self_s"]
            if module != "cli":
                out[f"{module}.{name}.calls"] = row["calls"]
                out[f"{module}.{name}.self_s"] = row["self_s"]
        out[f"{module}.self_s"] = module_self
    lookups = superspaces_info.hits + superspaces_info.misses
    out["gf.superspaces.hit_ratio"] = superspaces_info.hits / lookups if lookups else 0.0
    dc_calls = totals.get("weyl.double_coset_min", {}).get("calls", 0)
    scans = tracer.edge("weyl.double_coset_min", "weyl.length").calls
    out["weyl.double_coset_min.scan_per_call"] = scans / dc_calls if dc_calls else 0.0
    candidates = tracer.edge("quiver.enumerate_subreps", "gf.superspaces").measured
    yielded = totals.get("quiver.enumerate_subreps", {}).get("measured", 0)
    out["quiver.enumerate_subreps.yield_ratio"] = yielded / candidates if candidates else 0.0
    steps = totals.get("quiver.deform_step", {}).get("measured", 0)
    attempts = tracer.edge("quiver.deform_step", "quiver.reassemble").calls
    out["quiver.deform_step.attempts_per_step"] = attempts / steps if steps else 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    lib = import_library()
    tracer = Tracer()
    superspaces = lib.gf.superspaces
    if args.trace:
        targets = [
            (importlib.import_module(f"linkedgrass.{module}"), name, f"{module}.{name}")
            for module, names in TRACED.items()
            for name in names
        ]
        tracer.install(
            targets,
            measures={
                "gf.superspaces": len,
                "quiver.deform_step": lambda step: step is not None,
            },
        )
    jobs = wl.prepare(wl.job_list(args.workload, args.seed))
    first_job_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_job_at": first_job_at}))
        return 0

    outputs = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for item in jobs:
        t0 = time.perf_counter()
        try:
            output, error = item.run(), None
        except Exception:
            output, error = None, last_line(traceback.format_exc())
        outputs.append((output, error, time.perf_counter() - t0))
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.uninstall()

    records = []
    for item, (output, error, latency) in zip(jobs, outputs):
        ok, value = False, None
        if error is None:
            try:
                ok, value = item.check(output)
            except Exception:
                error = last_line(traceback.format_exc())
        records.append([item.job.id, item.job.kind, latency, ok, value, error])

    result = {
        "first_job_at": first_job_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "jobs": records,
    }
    if args.trace:
        result["trace"] = trace_summary(tracer, superspaces.cache_info())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
