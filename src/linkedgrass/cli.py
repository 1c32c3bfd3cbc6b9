"""Batch front end: analyze configurations, enumerate strata, run suites.

Subcommands: analyze, quiver, admissible, strata, verify, multidegree.
Exit codes: 0 success, 1 verification failure, 2 input or usage error
(malformed configuration, non-prime --p, --r outside 0 < r < d, a --budget
below 0, a `verify` --d, --n or --trials below its least value),
3 internal error (any other uncaught exception, reported on stderr by its
traceback and a last line `internal error: ...`), 141 (128 + SIGPIPE, as a
shell reports a writer killed by SIGPIPE) when the reader closes stdout
before the report is written, as `| head` does, with nothing on stderr.
Reports are deterministic for a fixed invocation (sorted JSON keys;
`verify --seed` seeds the only random generator); `verify` prints its
per-suite timings to stderr, never into the report.  `--format dot` is
offered only where something is drawn: analyze and quiver draw the quiver (a non-convex
configuration has none: exit 2), admissible the Hasse diagram of its strata
(`weyl.hasse_dot`, the order read once per pair; no report entry is built).
The `top_count` of admissible is read off `admissible.maximal_strata`: on
one simplex the classes of the translation double cosets, on a glued
configuration the maxima of the `top_strata` sweep; its `realizable` is
`Stratum.realizable`, true on one simplex by the local-model theorem.

Each configuration's quiver and stratum labels are built once per process
(`_quiver`, `_stratum_labels`, caches keyed on the configuration's value),
so they serve every prime and command that reads them.  JSON
reports are written by `_dumps`, byte for byte the stdlib's indented
layout, with each container of scalars encoded in C and each distinct
vector of ints encoded once per depth.

`verify` and `multidegree` are read off the package inside their commands,
so the other subcommands never import (or compile) them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path

import linkedgrass

from . import admissible as adm
from . import gf
from . import independence as ind
from . import quiver as qv
from .lattice import Configuration, InvariantError, is_convex
from .weyl import hasse_dot


def _load_config(path: str) -> Configuration:
    try:
        return Configuration.from_json(Path(path).read_text())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot read configuration {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _check_r(r: int, config: Configuration) -> None:
    if not 0 < r < config.d:
        print(f"error: --r must satisfy 0 < r < d = {config.d}, got {r}", file=sys.stderr)
        raise SystemExit(2)


@functools.cache
def _flat(level: int):
    """The C encoder of `json.dumps(..., sort_keys=True, default=str)` that
    starts each item after the first on a new line at indent `level`."""
    return json.encoder.c_make_encoder(
        None, str, json.encoder.encode_basestring_ascii, None, ": ", ",\n" + "  " * level, True, False, True
    )


def _dumps(value, level: int = 0) -> str:
    """`json.dumps(value, sort_keys=True, indent=2, default=str)`, byte for
    byte, for a value nested `level` deep.  The stdlib writes any indented
    value in pure Python; here each non-empty container of scalars is one C
    encoder call, with its items separated by a newline and the indent, and
    only the containers above them are written in Python.  A list or tuple
    of exact ints (no bool) is encoded once per distinct value and depth
    (`_int_leaf`): reports repeat the same vectors.  Tuples are lists, and
    non-str keys are converted as `json` converts them."""
    if not isinstance(value, (dict, list, tuple)):
        return json.encoder.encode_basestring_ascii(value) if type(value) is str else "".join(_flat(0)(value, 0))
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return brackets
    children = value.values() if isinstance(value, dict) else value
    ints = children is value  # a dict's text holds its keys too: never memoised
    for x in children:
        if type(x) is not int:
            if isinstance(x, (dict, list, tuple)):
                break
            ints = False
    else:
        return _int_leaf(tuple(value), level) if ints else _leaf(value, level)
    inner = "\n" + "  " * (level + 1)
    if isinstance(value, dict):
        parts = [_key(k) + ": " + _dumps(x, level + 1) for k, x in sorted(value.items())]
    else:
        parts = [_dumps(x, level + 1) for x in value]
    return brackets[0] + inner + ("," + inner).join(parts) + inner[:-2] + brackets[1]


def _leaf(value, level: int) -> str:
    """`_dumps` of a non-empty container of scalars: one C encoder call."""
    inner = "\n" + "  " * (level + 1)
    text = "".join(_flat(level + 1)(value, 0))
    return text[0] + inner + text[1:-1] + inner[:-2] + text[-1]


@functools.cache
def _int_leaf(items: tuple[int, ...], level: int) -> str:
    """`_leaf` of a vector of exact ints: equal keys give equal text, as no
    bool or float ever enters the key."""
    return _leaf(items, level)


def _key(key) -> str:
    """A dict key as `json` writes it, quoted: a str as is, an int, float,
    bool or None as its JSON text."""
    if isinstance(key, str):
        return json.encoder.encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return json.encoder.encode_basestring_ascii(_dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "text":
        for key, value in sorted(report.items()):
            print(f"{key}: {value}")
    else:
        print(_dumps(report))


@functools.cache
def _quiver(config: Configuration) -> qv.Quiver:
    """The quiver of a configuration, built once per process: its cached
    facts then serve every command, prime and r that reads it."""
    return qv.Quiver(config)


@functools.cache
def _stratum_labels(config: Configuration, r: int) -> frozenset[qv.RankVector]:
    """The rank vectors of a configuration's stratum table at r, the labels
    `strata` checks at every prime, found once per process."""
    return frozenset(s.rank for s in adm.strata(_quiver(config), r))


def _rank_entries(quiver: qv.Quiver):
    """The report of a rank vector: its off-diagonal ranks keyed "u->v",
    read at their positions in `Quiver.pair_plan`, with the key strings
    built once per quiver."""
    names = [(j, f"{u}->{v}") for j, (u, v) in enumerate(quiver.pair_plan.pairs) if u != v]
    return lambda rank: {name: rank.entries[j][1] for j, name in names}


def cmd_analyze(args) -> int:
    config = _load_config(args.config)
    if args.format == "dot":
        print(_quiver(config).to_dot())
        return 0
    convex, missing = is_convex(config)
    report = {
        "d": config.d,
        "vertices": [list(v) for v in config.vertices],
        "convex": convex,
        "missing": [list(v) for v in missing],
    }
    if convex:
        quiver = _quiver(config)
        ok, certs = ind.weakly_independent(quiver)
        report.update(
            {
                "maximal_simplices": [[list(v) for v in s] for s in quiver.simplices],
                "arrows": [[list(u), list(v)] for u, v in quiver.arrows],
                "weakly_independent": ok,
                "linearly_independent": ind.linearly_independent(quiver),
                "certificates": [json.loads(c.to_json()) for c in certs],
            }
        )
        if ok:
            structure = ind.validate_structure(quiver)
            report["cycles"] = structure.cycle_count
            report["structure_ok"] = structure.ok
    else:
        report["warning"] = "configuration is not convex; closure needed"
    _emit(report, args.format)
    return 0


def cmd_quiver(args) -> int:
    config = _load_config(args.config)
    quiver = _quiver(config)
    if args.format == "dot":
        print(quiver.to_dot())
        return 0
    report = {
        "arrows": [[list(u), list(v)] for u, v in quiver.arrows],
        "transitions": [
            [list(u), list(v), t.n, sorted(t.support)]
            for (u, v), t in sorted(quiver.trans.items())
            if u != v
        ],
    }
    _emit(report, args.format)
    return 0


def cmd_admissible(args) -> int:
    config = _load_config(args.config)
    _check_r(args.r, config)
    quiver = _quiver(config)
    table = adm.strata(quiver, args.r)
    if args.format == "dot":
        print(hasse_dot("hasse", [s.rank for s in table], [f"s{i}" for i in range(len(table))], qv.RankVector.leq))
        return 0
    ranks = _rank_entries(quiver)
    strata = []
    for idx, s in enumerate(table):
        entry = {
            "index": idx,
            "faces": [[list(v) for v in f.vectors] for f in s.collection.faces],
            "ranks": ranks(s.rank),
        }
        if len(quiver.simplices) == 1:
            entry["dimension"] = adm.stratum_dimension(s.collection.faces[0])
        if quiver.is_weakly_independent:
            entry["realizable"] = s.realizable
        strata.append(entry)
    report = {
        "r": args.r,
        "strata": strata,
        "count": len(table),
        "top_count": len(adm.maximal_strata(table)),
    }
    _emit(report, args.format)
    return 0


def cmd_strata(args) -> int:
    config = _load_config(args.config)
    _check_r(args.r, config)
    quiver = _quiver(config)
    classes = qv.rank_classes(quiver, args.r, args.p, args.budget)
    labels = _stratum_labels(config, args.r)
    ranks = _rank_entries(quiver)
    strata = []
    for rank, row in sorted(classes.items(), key=lambda kv: kv[0].entries):
        entry = {
            "ranks": ranks(rank),
            "points": row.points,
            "is_stratum_label": rank in labels,
        }
        if quiver.is_weakly_independent:
            types = qv.types_from_rank(rank, quiver)
            if types is None:
                raise InvariantError(f"no summand multiset has the rank vector of a point: {rank}")
            entry["summand_types"] = [
                {"root": list(t.root), "support": sorted(map(list, t.support)), "mult": m}
                for t, m in sorted(types.items(), key=lambda kv: (kv[0].root, sorted(kv[0].support)))
            ]
        strata.append(entry)
    mismatch = [s for s in strata if not s["is_stratum_label"]]
    report = {
        "r": args.r,
        "p": args.p,
        "classes": len(classes),
        "points": sum(row.points for row in classes.values()),
        "strata": strata,
        "cross_check_ok": not mismatch,
    }
    _emit(report, args.format)
    return 0 if not mismatch else 1


def cmd_verify(args) -> int:
    kwargs = {
        "d": args.d,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "budget": args.budget,
    }
    if args.p is not None:
        kwargs["p"] = args.p
        kwargs["ps"] = (args.p,)
    vf = linkedgrass.verify  # loaded only for this subcommand
    names = sorted(vf.SUITES) if args.suite == "all" else [args.suite]
    if any(name not in vf.SUITES for name in names):
        print(f"error: unknown suite {args.suite!r}; available: {sorted(vf.SUITES)} or 'all'", file=sys.stderr)
        return 2
    passed = True
    for name in names:
        start = time.perf_counter()
        report = vf.run_suite(name, **kwargs)
        print(f"suite {name}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
        report["seed"] = args.seed
        _emit(report, args.format)
        passed = passed and report["passed"]
    return 0 if passed else 1


def cmd_multidegree(args) -> int:
    md = linkedgrass.multidegree  # loaded only for this subcommand
    if args.source == "kn":
        if args.n is None:
            print("error: kn mode needs --n", file=sys.stderr)
            return 2
        rep = md.kn_instance(args.n)
        report = {
            "graph": json.loads(rep.graph.to_json()),
            "w0": list(rep.w0),
            "multidegrees": [list(w) for w in rep.multidegrees],
            "formulas_match": rep.formulas_match,
            "concentrated": rep.concentrated,
            "vbar_matches": rep.vbar_matches,
            "twist_vectors": [list(a) for a in rep.twist_vectors],
            "nested_chain": rep.nested_chain,
            "ok": rep.ok,
        }
        _emit(report, args.format)
        return 0 if rep.ok else 1
    try:
        graph = md.DualGraph.from_json(Path(args.source).read_text())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot read graph {args.source}: {exc}", file=sys.stderr)
        return 2
    if args.w0 is None:
        print("error: graph mode needs --w0", file=sys.stderr)
        return 2
    w0 = tuple(int(x) for x in args.w0.split(","))
    if len(w0) != graph.n:
        print("error: --w0 length does not match the graph", file=sys.stderr)
        return 2
    report = {
        "graph": json.loads(graph.to_json()),
        "w0": list(w0),
        "concentrated_on": {
            v: is_conc for v in range(graph.n) for is_conc in [md.is_concentrated(graph, w0, v)[0]]
        },
        "twist_orbit_sample": [
            list(md.twist_at(graph, w0, v)) for v in range(graph.n)
        ],
    }
    _emit(report, args.format)
    return 0


def prime(text: str) -> int:
    """argparse type of --p; its ValueError reads "invalid prime value"."""
    p = int(text)
    gf.check_prime(p)
    return p


def at_least(low: int):
    """argparse type of an integer option whose values below `low` would
    leave a suite nothing to check or a walk nothing to spend."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkedgrass",
        description="Desk-scale analysis of lattice configurations and their degenerations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, draws=False):
        p.add_argument("--format", choices=["json", "dot", "text"] if draws else ["json", "text"], default="json")

    p_analyze = sub.add_parser("analyze", help="convexity, simplices, quiver, independence")
    p_analyze.add_argument("config")
    common(p_analyze, draws=True)

    p_quiver = sub.add_parser("quiver", help="export the quiver with shifts and supports")
    p_quiver.add_argument("config")
    common(p_quiver, draws=True)

    p_adm = sub.add_parser("admissible", help="admissible collections, ranks, dimensions")
    p_adm.add_argument("config")
    common(p_adm, draws=True)
    p_adm.add_argument("--r", type=int, default=1)

    p_strata = sub.add_parser(
        "strata",
        help="brute-force rank strata over F_p; summand types from the rank vector"
        " by multiplicities_from_rank",
    )
    p_strata.add_argument("config")
    common(p_strata)
    p_strata.add_argument("--r", type=int, default=1)
    p_strata.add_argument("--p", type=prime, default=2)
    p_strata.add_argument("--budget", type=at_least(0), default=10_000_000)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--d", type=at_least(2), default=None)
    p_verify.add_argument("--n", type=at_least(2), default=None)
    p_verify.add_argument("--trials", type=at_least(1), default=None)
    p_verify.add_argument("--p", type=prime, default=None)
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--budget", type=at_least(0), default=None)

    p_md = sub.add_parser("multidegree", help="twists, concentration, compatibility sets")
    p_md.add_argument("source", help="'kn' or a graph JSON path")
    p_md.add_argument("--n", type=int, default=None)
    p_md.add_argument("--w0", type=str, default=None)
    common(p_md)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # looked up per call, so the cached parser holds no command function
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # so a reader that left before the last write is caught here
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: not a crash; stdout
        # now points at the null device, so the flush at exit prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
