"""Record the benchmark's reference data from the current library.

    python3 bench/record.py

Writes `deform_pool.json` (per quiver instance and p: one representative of
every rank-vector class, in enumeration order, and every comparable class
pair) and then `digests.json` (the normalized-output digest of every job
any seed can select).  Every job must pass its independent check; the run
stops at the first that does not.  The recorded files are the reference a
later version of the library is compared against, so rerun this only when
a change of outputs is intended.
"""

from __future__ import annotations

import json
import sys

import workloads as wl

sys.path.insert(0, str(wl.HERE.parent / "src"))


def record_deform_pool() -> None:
    from linkedgrass import quiver as qv
    from linkedgrass.lattice import Configuration

    pool = {}
    for config, r in wl.QUIVER_INSTANCES:
        q = qv.Quiver(Configuration.from_json((wl.CONFIGS / f"{config}.json").read_text()))
        for p in wl.QUIVER_PRIMES:
            classes = {}
            for M in qv.enumerate_subreps(q, r, p):
                classes.setdefault(qv.rank_vector(M, q), M)
            phis = list(classes)
            pool[f"{wl.instance_name(config, r)}/p{p}"] = {
                "classes": [json.loads(M.to_json())["spaces"] for M in classes.values()],
                "pairs": [
                    [i, j]
                    for i, a in enumerate(phis)
                    for j, b in enumerate(phis)
                    if i != j and a.leq(b)
                ],
            }
    (wl.HERE / "deform_pool.json").write_text(json.dumps(pool, sort_keys=True) + "\n")


def record_digests() -> None:
    digests = {}
    for workload in wl.WORKLOADS:
        for item in wl.prepare(wl.full_pool(workload)):
            ok, value = item.check(item.run())
            if not ok:
                raise SystemExit(f"check failed: {item.job.id}")
            digests[item.job.id] = value
        print(f"{workload}: {len(digests)} digests so far", file=sys.stderr)
    text = json.dumps(digests, sort_keys=True, indent=0)
    (wl.HERE / "digests.json").write_text(text + "\n")


if __name__ == "__main__":
    record_deform_pool()
    record_digests()
