"""Job pools of the three benchmark workloads, their seeded selection and checks.

`job_list(workload, seed)` is pure: it needs only the files in this
directory, so the job list of a seed can be computed and tested without
importing the library.  `prepare(jobs)` builds the library inputs (the
set-up a child interpreter times); each prepared job's `check(output)`
runs its independent correctness check and returns the digest of its
normalized output, to be compared with the one recorded in `digests.json`.

Workloads (the pools and what the seed picks):

* ``weyl-strata`` -- 16 ``linkedgrass admissible CFG --r R`` jobs: the
  standard alcoves for d = 3, 4, 5 at every r, face-d5 and edge-d5 at r = 2,
  path-d3 at r = 1, 2, branched-d4 at r = 1, 2 and branched-d5 at r = 1.  The
  seed shuffles the order, which decides which job fills the shared Weyl
  memo tables first.
* ``quiver-decompose`` -- library calls on the seven weakly independent
  instances at p = 2, 3.  Per instance and p the seed draws 150 of
  ``DECOMPOSE_POOL`` seeded random sub-representations for ``decompose`` and
  at most 40 comparable class pairs of ``deform_pool.json`` for
  ``deform_chain``, then shuffles all 2,348 jobs together.
* ``grassmannian-enum`` -- 21 ``linkedgrass strata CFG --r R --p P`` jobs:
  alcove-d4, branched-d4 and triangle-d3 at r = 1, 2 and the shared-edge
  triangles at r = 1, each for p = 2, 3, 5.  The seed shuffles the order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"

WEYL_STRATA = [
    ("alcove-d3", 1), ("alcove-d3", 2),
    ("alcove-d4", 1), ("alcove-d4", 2), ("alcove-d4", 3),
    ("alcove-d5", 1), ("alcove-d5", 2), ("alcove-d5", 3), ("alcove-d5", 4),
    ("face-d5", 2), ("edge-d5", 2),
    ("path-d3", 1), ("path-d3", 2),
    ("branched-d4", 1), ("branched-d4", 2),
    ("branched-d5", 1),
]

GRASSMANNIAN = [
    ("alcove-d4", 1), ("alcove-d4", 2),
    ("branched-d4", 1), ("branched-d4", 2),
    ("triangle-d3", 1), ("triangle-d3", 2),
    ("shared-edge-triangles", 1),
]
GRASSMANNIAN_PRIMES = (2, 3, 5)

# the weakly independent instances of the quiver-side verification suites
# (verify.WEAKLY_INDEPENDENT_INSTANCES), as (configuration, r); a frozen
# copy, which test_bench.py checks against the library's list
QUIVER_INSTANCES = [
    ("segment-d2", 1), ("triangle-d3", 1), ("triangle-d3", 2), ("path-d2", 1),
    ("alcove-d4", 2), ("branched-d4", 1), ("branched-d4", 2),
]
QUIVER_PRIMES = (2, 3)
DECOMPOSE_POOL = 300
DECOMPOSE_PER_INSTANCE = 150
DEFORM_PER_INSTANCE = 40

WORKLOADS = ("weyl-strata", "quiver-decompose", "grassmannian-enum")


@dataclass(frozen=True)
class Job:
    id: str
    kind: str  # admissible | strata | decompose | deform
    config: str
    r: int
    p: int = 0
    index: int = 0  # decompose: pool index; deform: source class
    target: int = 0  # deform: target class


def instance_name(config: str, r: int) -> str:
    return f"{config}-r{r}"


def load_deform_pool() -> dict:
    return json.loads((HERE / "deform_pool.json").read_text())


def full_pool(workload: str) -> list[Job]:
    """Every job a seed can select for the workload, in a fixed order."""
    if workload == "weyl-strata":
        return [Job(f"admissible {c} --r {r}", "admissible", c, r) for c, r in WEYL_STRATA]
    if workload == "grassmannian-enum":
        return [
            Job(f"strata {c} --r {r} --p {p}", "strata", c, r, p)
            for c, r in GRASSMANNIAN
            for p in GRASSMANNIAN_PRIMES
        ]
    if workload == "quiver-decompose":
        deform_pool = load_deform_pool()
        jobs = []
        for c, r in QUIVER_INSTANCES:
            name = instance_name(c, r)
            for p in QUIVER_PRIMES:
                jobs += [
                    Job(f"decompose {name} p{p} #{i}", "decompose", c, r, p, i)
                    for i in range(DECOMPOSE_POOL)
                ]
                jobs += [
                    Job(f"deform {name} p{p} {i}->{j}", "deform", c, r, p, i, j)
                    for i, j in deform_pool[f"{name}/p{p}"]["pairs"]
                ]
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def job_list(workload: str, seed: int) -> list[Job]:
    """The seed's selection from the pool, in the seed's order."""
    rng = random.Random(seed)
    jobs = full_pool(workload)
    if workload == "quiver-decompose":
        limits = {"decompose": DECOMPOSE_PER_INSTANCE, "deform": DEFORM_PER_INSTANCE}
        groups: dict[tuple, list[Job]] = {}
        for job in jobs:
            groups.setdefault((job.kind, job.config, job.r, job.p), []).append(job)
        jobs = []
        for (kind, *_), group in groups.items():
            limit = limits[kind]
            jobs += group if len(group) <= limit else rng.sample(group, limit)
    rng.shuffle(jobs)
    return jobs


def random_seeds(vertices, d: int, p: int, rng: random.Random) -> list:
    """Seed vectors drawn as verify.suite_decomposition draws them."""
    seeds = []
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(vertices)
        vec = tuple(rng.randrange(p) for _ in range(d))
        if any(vec):
            seeds.append((v, vec))
    return seeds


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Everything below imports the library: it runs inside a child interpreter.


class Prepared(NamedTuple):
    """A job with its inputs built: `run()` is timed, `check(output)` is not
    and returns (passed, digest of the normalized output)."""

    job: Job
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


def prepare(jobs: list[Job]) -> list[Prepared]:
    """Build each job's inputs; this is the set-up a child interpreter times."""
    from linkedgrass import independence, quiver as qv
    from linkedgrass.lattice import Configuration

    quivers: dict[str, qv.Quiver] = {}
    deform_pool = load_deform_pool() if any(j.kind == "deform" for j in jobs) else {}

    def quiver_of(config: str) -> qv.Quiver:
        if config not in quivers:
            q = qv.Quiver(Configuration.from_json((CONFIGS / f"{config}.json").read_text()))
            ok, _ = independence.weakly_independent(q)
            if not ok:
                raise ValueError(f"{config} is not locally weakly independent")
            quivers[config] = q
        return quivers[config]

    out = []
    for job in jobs:
        path = str(CONFIGS / f"{job.config}.json")
        if job.kind == "admissible":
            argv = ["admissible", path, "--r", str(job.r)]
            out.append(Prepared(job, _cli_runner(argv), partial(_check_admissible, job)))
        elif job.kind == "strata":
            argv = ["strata", path, "--r", str(job.r), "--p", str(job.p)]
            out.append(Prepared(job, _cli_runner(argv), _check_strata))
        elif job.kind == "decompose":
            q = quiver_of(job.config)
            rng = random.Random(f"{instance_name(job.config, job.r)}/p{job.p}/{job.index}")
            M = qv.generated(q, random_seeds(q.vertices, q.d, job.p, rng), job.p)
            run = partial(qv.decompose, M, q, check_independent=False)
            out.append(Prepared(job, run, partial(_check_decompose, q, M)))
        elif job.kind == "deform":
            q = quiver_of(job.config)
            classes = deform_pool[f"{instance_name(job.config, job.r)}/p{job.p}"]["classes"]
            source, target = (
                qv.SubRep.from_json(json.dumps({"p": job.p, "spaces": classes[i]}))
                for i in (job.index, job.target)
            )
            phi = qv.rank_vector(target, q)
            run = partial(qv.deform_chain, source, q, phi)
            out.append(Prepared(job, run, partial(_check_deform, q, source, phi)))
        else:
            raise ValueError(f"unknown job kind {job.kind!r}")
    return out


def _cli_runner(argv: list[str]):
    from linkedgrass import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return run


def _check_admissible(job: Job, output) -> tuple[bool, str]:
    code, text = output
    report = json.loads(text)
    ok = code == 0 and report["count"] == len(report["strata"])
    if job.config.startswith("alcove-"):
        d = int(job.config.split("-d")[1])
        dims = [s["dimension"] for s in report["strata"]]
        ok = ok and report["top_count"] == math.comb(d, job.r)
        ok = ok and max(dims) == job.r * (d - job.r)
    return ok, digest(report)


def _check_strata(output) -> tuple[bool, str]:
    code, text = output
    report = json.loads(text)
    ok = code == 0 and report["cross_check_ok"] is True
    ok = ok and report["points"] == sum(s["points"] for s in report["strata"])
    return ok, digest(report)


def _check_decompose(q, M, summands) -> tuple[bool, str]:
    from linkedgrass import quiver as qv

    phi = qv.rank_vector(M, q)
    types = qv.type_multiset(summands, q, M.p)
    ok = all(qv.multiplicities_from_rank(phi, t, q) == m for t, m in types.items())
    ok = ok and qv.reassemble(summands, q, M.p) == M
    normalized = sorted([list(t.root), sorted(map(list, t.support)), m] for t, m in types.items())
    return ok, digest(normalized)


def _check_deform(q, source, target, chain) -> tuple[bool, str]:
    from linkedgrass import quiver as qv

    ranks = [qv.rank_vector(M, q) for M in chain]
    ok = chain[0] == source and ranks[-1] == target
    ok = ok and all(
        a.leq(b) and a != b and M.dims() == source.dims()
        for a, b, M in zip(ranks, ranks[1:], chain[1:])
    )
    normalized = [[[list(u), list(v), x] for (u, v), x in rv.entries] for rv in ranks]
    return ok, digest(normalized)
