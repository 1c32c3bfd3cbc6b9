import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkedgrass import cli
from linkedgrass import quiver as qv
from linkedgrass import verify as vf
from linkedgrass.lattice import InvariantError, configuration
from linkedgrass.verify import WEAKLY_INDEPENDENT_INSTANCES


def write_config(tmp_path, name, d, vertices):
    path = tmp_path / name
    path.write_text(json.dumps({"d": d, "vertices": vertices}))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_alcove(tmp_path, capsys):
    path = write_config(tmp_path, "omega.json", 2, [[0, 0], [1, 0]])
    code, out = run(capsys, ["analyze", path])
    report = json.loads(out)
    assert code == 0
    assert report["convex"] and report["weakly_independent"]
    assert report["cycles"] == 1


def test_analyze_non_convex_warns_but_succeeds(tmp_path, capsys):
    path = write_config(tmp_path, "gap.json", 2, [[0, 0], [2, 0]])
    code, out = run(capsys, ["analyze", path])
    report = json.loads(out)
    assert code == 0
    assert not report["convex"]
    assert report["missing"] == [[1, 0]]
    assert "warning" in report


MALFORMED_CONFIGS = [
    "{not json",
    "[1,2]",
    '"x"',
    "null",
    '{"d":2,"vertices":5}',
    '{"d":2,"vertices":[["a",0]]}',
    '{"d":2,"vertices":[[0.5,0]]}',
    '{"d":2,"vertices":[[true,0]]}',
    '{"d":2,"vertices":[]}',
    '{"d":2,"vertices":[[]]}',
    '{"d":null,"vertices":[[0,0]]}',
]


def test_analyze_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for text, command in itertools.product(MALFORMED_CONFIGS, ["analyze", "admissible", "strata"]):
        path.write_text(text)
        with pytest.raises(SystemExit) as err:
            cli.main([command, str(path)])
        assert err.value.code == 2, (text, command)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read configuration {path}: ")
        assert captured.err.count("\n") == 1


def test_quiver_dot_output(tmp_path, capsys):
    path = write_config(tmp_path, "omega.json", 2, [[0, 0], [1, 0]])
    code, out = run(capsys, ["quiver", path, "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph quiver {")
    assert "supp" in out


def test_quiver_text_is_the_text_report(tmp_path, capsys):
    path = write_config(tmp_path, "omega.json", 2, [[0, 0], [1, 0]])
    code, out = run(capsys, ["quiver", path, "--format", "text"])
    assert code == 0
    assert out == "arrows: [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]\ntransitions: [[[0, 0], [1, 0], 0, [2]], [[1, 0], [0, 0], 1, [1]]]\n"
    code, json_out = run(capsys, ["quiver", path])
    report = json.loads(json_out)
    assert out == "".join(f"{key}: {value}\n" for key, value in sorted(report.items()))


def test_analyze_dot_of_a_non_convex_configuration_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "gap.json", 2, [[0, 0], [2, 0]])
    code = cli.main(["analyze", path, "--format", "dot"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: configuration is not convex; missing [(1, 0)]\n"


def test_analyze_dot_is_the_quiver_dot(tmp_path, capsys):
    path = write_config(tmp_path, "branched.json", 4, [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]])
    code, out = run(capsys, ["analyze", path, "--format", "dot"])
    assert code == 0 and out.startswith("digraph quiver {")
    assert run(capsys, ["quiver", path, "--format", "dot"]) == (0, out)


def test_admissible_counts(tmp_path, capsys):
    path = write_config(tmp_path, "omega.json", 2, [[0, 0], [1, 0]])
    code, out = run(capsys, ["admissible", path, "--r", "1"])
    report = json.loads(out)
    assert code == 0
    assert report["count"] == 3 and report["top_count"] == 2
    dims = sorted(s["dimension"] for s in report["strata"])
    assert dims == [0, 1, 1]


def test_admissible_hasse_dot(tmp_path, capsys):
    path = write_config(tmp_path, "omega.json", 2, [[0, 0], [1, 0]])
    code, out = run(capsys, ["admissible", path, "--r", "1", "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph hasse {")


def test_strata_cross_check(tmp_path, capsys):
    path = write_config(tmp_path, "omega3.json", 3, [[0, 0, 0], [1, 0, 0], [1, 1, 0]])
    code, out = run(capsys, ["strata", path, "--r", "1", "--p", "2"])
    report = json.loads(out)
    assert code == 0
    assert report["cross_check_ok"]
    assert report["classes"] == 7


def decomposed_types(quiver, p, r):
    """Per rank vector, the summand types of a decomposed member of the class
    in the report's format: the oracle of the types read off rank vectors."""
    members = {}
    for M in qv.enumerate_subreps(quiver, r, p):
        members.setdefault(qv.rank_vector(M, quiver), M)
    out = {}
    for rank, M in members.items():
        multiset = qv.type_multiset(qv.decompose(M, quiver), quiver, p)
        key = json.dumps({f"{u}->{v}": val for (u, v), val in rank.entries if u != v}, sort_keys=True)
        out[key] = [
            {"root": list(t.root), "support": sorted(map(list, t.support)), "mult": m}
            for t, m in sorted(multiset.items(), key=lambda kv: (kv[0].root, sorted(kv[0].support)))
        ]
    return out


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", sorted(WEAKLY_INDEPENDENT_INSTANCES))
def test_strata_summand_types_match_decomposition(tmp_path, capsys, name, p):
    verts, r = WEAKLY_INDEPENDENT_INSTANCES[name]
    config = configuration(verts)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    code, out = run(capsys, ["strata", str(path), "--r", str(r), "--p", str(p)])
    assert code == 0
    strata = json.loads(out)["strata"]
    expected = decomposed_types(qv.Quiver(config), p, r)
    assert len(strata) == len(expected)
    for entry in strata:
        assert entry["summand_types"] == expected[json.dumps(entry["ranks"], sort_keys=True)]


def test_strata_rank_vector_without_summand_multiset_is_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(qv, "types_from_rank", lambda phi, quiver: None)
    code = cli.main(["strata", str(CONFIGS / "triangle-d3.json"), "--r", "1", "--p", "2"])
    assert code == 3
    assert "internal error: InvariantError: no summand multiset" in capsys.readouterr().err


def test_strata_shares_rank_rows_between_points(capsys):
    qv._ranks_from.cache_clear()
    code, _ = run(capsys, ["strata", str(CONFIGS / "alcove-d4.json"), "--r", "2", "--p", "3"])
    assert code == 0
    info = qv._ranks_from.cache_info()
    assert info.hits > 0 and info.currsize == info.misses


def test_strata_assembles_each_rank_vector_once(capsys):
    qv._assemble_ranks.cache_clear()
    code, out = run(capsys, ["strata", str(CONFIGS / "alcove-d4.json"), "--r", "2", "--p", "3"])
    assert code == 0
    info = qv._assemble_ranks.cache_info()
    assert info.misses == json.loads(out)["classes"] > 1


def test_strata_budget_exceeded_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "omega3.json", 3, [[0, 0, 0], [1, 0, 0], [1, 1, 0]])
    code = cli.main(["strata", path, "--r", "1", "--p", "3", "--budget", "2"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command", ["strata", "verify"])
def test_budget_exceeded_is_a_one_line_error(capsys, command):
    target = str(CONFIGS / "alcove-d3.json") if command == "strata" else "strata"
    code = cli.main([command, target, "--budget", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: enumeration exceeded budget 5\n"


def test_verify_unknown_suite_exits_2(capsys):
    code = cli.main(["verify", "nonsense"])
    capsys.readouterr()
    assert code == 2


def test_verify_kn(capsys):
    code, out = run(capsys, ["verify", "kn", "--n", "4"])
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert report["seed"] == 0


def test_verify_weyl_reproducible(capsys):
    code1, out1 = run(capsys, ["verify", "weyl", "--d", "3", "--seed", "7"])
    code2, out2 = run(capsys, ["verify", "weyl", "--d", "3", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_multidegree_kn(capsys):
    code, out = run(capsys, ["multidegree", "kn", "--n", "4"])
    report = json.loads(out)
    assert code == 0 and report["ok"]
    assert report["multidegrees"][0] == [3, 2, 1, 0]
    assert report["multidegrees"][1] == [0, 3, 2, 1]


def test_multidegree_graph_file(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    code, out = run(capsys, ["multidegree", str(path), "--w0", "1,0"])
    report = json.loads(out)
    assert code == 0
    assert report["w0"] == [1, 0]


def test_multidegree_kn_missing_n_exits_2(capsys):
    code = cli.main(["multidegree", "kn"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "w0, message",
    [(None, "error: graph mode needs --w0\n"), ("1,0,0", "error: --w0 length does not match the graph\n")],
)
def test_multidegree_graph_without_a_matching_w0_exits_2(tmp_path, capsys, w0, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    code = cli.main(["multidegree", str(path), *([] if w0 is None else ["--w0", w0])])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == message


MALFORMED_GRAPHS = [
    "{not json",
    "[1]",
    "null",
    '{"n": 2, "edges": [[0, "x"]]}',
    '{"n": 2, "edges": [[0, 1.5]]}',
    '{"n": 2, "edges": 5}',
    '{"n": 2, "edges": [[0, 1, 1]]}',
    '{"n": 2, "edges": [[true, 1]]}',
    '{"n": 2.7, "edges": [[0, 1]]}',
    '{"n": true, "edges": [[0, 1]]}',
    '{"n": 0, "edges": []}',
    '{"edges": [[0, 1]]}',
    '{"n": 3, "edges": [[0, 1]]}',
]


@pytest.mark.parametrize("text", MALFORMED_GRAPHS)
def test_multidegree_malformed_graph_exits_2(tmp_path, capsys, text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    code = cli.main(["multidegree", str(path), "--w0", "1,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot read graph {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["strata", "config.json"], ["verify", "kn"], ["multidegree", "kn"]])
def test_format_dot_only_where_something_is_drawn(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main([*argv, "--format", "dot"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "argument --format: invalid choice: 'dot'" in captured.err


def test_admissible_dot_is_the_hasse_diagram(tmp_path, capsys):
    # strata s0, s2 are the two top strata; s1 lies below both
    path = write_config(tmp_path, "omega.json", 2, [[0, 0], [1, 0]])
    code, out = run(capsys, ["admissible", path, "--r", "1", "--format", "dot"])
    assert code == 0
    assert out.splitlines() == ["digraph hasse {", '  "s1" -> "s0";', '  "s1" -> "s2";', "}"]


@pytest.mark.parametrize("p", ["4", "1", "0"])
def test_strata_non_prime_p_exits_2(tmp_path, capsys, p):
    path = write_config(tmp_path, "tri.json", 3, [[0, 0, 0], [1, 0, 0], [1, 1, 0]])
    with pytest.raises(SystemExit) as err:
        cli.main(["strata", path, "--p", p])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1].endswith(f"argument --p: invalid prime value: '{p}'")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kn", "--n", "0"], "argument --n: must be at least 2, got 0"),
        (["components", "--d", "1"], "argument --d: must be at least 2, got 1"),
        (["admissibility", "--len-cap", "3"], "unrecognized arguments: --len-cap 3"),
        (["weyl", "--trials", "-1"], "argument --trials: must be at least 1, got -1"),
        (["weyl", "--d", "1"], "argument --d: must be at least 2, got 1"),
        (["weyl", "--d", "two"], "argument --d: invalid integer value: 'two'"),
        (["strata", "--budget", "-1"], "argument --budget: must be at least 0, got -1"),
    ],
)
def test_verify_options_that_check_nothing_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", *argv])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith(message)


def test_run_suite_rejects_a_keyword_that_no_suite_reads():
    with pytest.raises(TypeError, match="no suite reads: length_cap"):
        vf.run_suite("admissibility", length_cap=8)
    # the options `verify all` shares are each read by some suite
    assert vf.run_suite("kn", d=None, n=3, trials=None, seed=0, budget=None, p=2, ps=(2,))["passed"]


def test_verify_admissibility_passes_under_python_O():
    # and `verify simplex`, whose kernel bound is an `if`, not an assert
    src = Path(cli.__file__).resolve().parents[1]
    for argv in (["admissibility", "--d", "5"], ["simplex"]):
        result = subprocess.run(
            [sys.executable, "-O", "-m", "linkedgrass.cli", "verify", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["passed"] is True


def test_strata_negative_budget_exits_2_before_walking(capsys, monkeypatch):
    monkeypatch.setattr(qv, "rank_classes", lambda *args: pytest.fail("walked"))
    with pytest.raises(SystemExit) as err:
        cli.main(["strata", str(CONFIGS / "alcove-d3.json"), "--budget", "-1"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith("argument --budget: must be at least 0, got -1")


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    path = write_config(tmp_path, "omega.json", 2, [[0, 0], [1, 0]])
    code = cli.main(["analyze", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.endswith("\ninternal error: AssertionError: invariant broken\n")
    assert captured.out == ""


def test_broken_decomposition_postcondition_is_an_internal_error(capsys, monkeypatch):
    def broken(M, quiver, check_independent=True):
        raise InvariantError("decomposition failed to reassemble the representation")

    monkeypatch.setattr(qv, "decompose", broken)
    code = cli.main(["verify", "decomposition", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.endswith(
        "\ninternal error: InvariantError: decomposition failed to reassemble the representation\n"
    )


def test_verify_p_runs_the_suite_at_that_prime_alone(capsys):
    code, out = run(capsys, ["verify", "strata", "--p", "3"])
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert all(list(check["enumerated"]) == ["3"] for check in report["checks"].values())
    code, out = run(capsys, ["verify", "simplex", "--p", "3"])
    report = json.loads(out)
    assert code == 0 and report["passed"] and report["p"] == 3


def test_verify_timing_goes_to_stderr(capsys):
    code = cli.main(["verify", "weyl", "--d", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "elapsed_s" not in json.loads(captured.out)
    assert re.fullmatch(r"suite weyl: \d+\.\d\d s\n", captured.err)


@pytest.mark.parametrize("command", ["admissible", "strata"])
@pytest.mark.parametrize("r", ["0", "3"])
def test_r_out_of_range_exits_2(tmp_path, capsys, command, r):
    path = write_config(tmp_path, "tri.json", 3, [[0, 0, 0], [1, 0, 0], [1, 1, 0]])
    with pytest.raises(SystemExit) as err:
        cli.main([command, path, "--r", r])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --r must satisfy 0 < r < d = 3, got {r}\n"


def test_admissible_has_no_p_option(tmp_path, capsys):
    path = write_config(tmp_path, "omega.json", 2, [[0, 0], [1, 0]])
    with pytest.raises(SystemExit) as err:
        cli.main(["admissible", path, "--p", "2"])
    assert err.value.code == 2
    assert "unrecognized arguments: --p 2" in capsys.readouterr().err


CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"

# sha256 of the stdout of `strata CFG --r R --p P`, recorded before rank
# vectors were read off the echelon bases
STRATA_DIGESTS = {
    ("alcove-d4", 2, 3): "414970cf27cb1edb0fd072e803d676d64cf135b2874d12026933334a53a4816f",
    ("branched-d4", 2, 5): "5e05da8d0f591284fc3d6773a61f661b4bdc13a593d145b168be6ce747b38355",
    ("shared-edge-triangles", 1, 2): "b6befc032acb9f3d3cead4622d34c0f2945fecf3136c5969b48c0930f0111f40",
}


@pytest.mark.parametrize("name, r, p", sorted(STRATA_DIGESTS))
def test_strata_report_is_byte_identical(capsys, name, r, p):
    code, out = run(capsys, ["strata", str(CONFIGS / f"{name}.json"), "--r", str(r), "--p", str(p)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STRATA_DIGESTS[(name, r, p)]


# sha256 of the stdout of `multidegree SOURCE ARGS...`, recorded before twists
# became one Laplacian action and vbar_set a closed-form membership test
MULTIDEGREE_GRAPH = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 2]]}
MULTIDEGREE_DIGESTS = {
    ("kn", "--n 4"): "afab291f3d92dc31504d35210d52d5bd332080b0ddb4ecb767c07c442162e409",
    ("kn", "--n 6"): "fb5dcff7408a1a194ae9718f970d5c165e48e4efcc42a852bedea176fb78cf9d",
    ("graph", "--w0 1,1,0,-1"): "b5684933f0815dec38edad53ff6841baefad8bdc014c147ac96afa030a01f6ef",
}


@pytest.mark.parametrize("source, args", sorted(MULTIDEGREE_DIGESTS))
def test_multidegree_report_is_byte_identical(tmp_path, capsys, source, args):
    target = source
    if source == "graph":
        target = tmp_path / "graph.json"
        target.write_text(json.dumps(MULTIDEGREE_GRAPH))
    code, out = run(capsys, ["multidegree", str(target), *args.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MULTIDEGREE_DIGESTS[(source, args)]


# sha256 of the stdout of `admissible CFG ARGS...`, recorded before each
# double coset was scanned once and top strata were ranked on per-collection keys
ADMISSIBLE_DIGESTS = {
    ("branched-d5", "--r 1"): "6cc3a8acbae86268505675f0a71761b61e7bc6b0a36007a832db7cf746525b81",
    ("alcove-d5", "--r 2"): "d855c29a570dbf03d5d41357ca9305c8d6fb415a0a7d7c1a9d43544c7f96c794",
    ("face-d5", "--r 2"): "efa002a3aea9b9334820acf57b5b8d3e98a9dcced065fbfca5623cab4010795a",
    ("alcove-d4", "--r 2 --format dot"): "96e740ee014ca24802650823db24637f50166eebbc13f12f01f6a0002a758d83",
    # recorded before the double-coset keys moved to standard position:
    # non-alcove simplices and gluing over shared faces
    ("edge-d5", "--r 2"): "4ac2716c4e8a4cc3c44b56af1ad1e3b14733741742ac5c84bc2847ebf08176ab",
    ("path-d3", "--r 2"): "644eab3a095eabc6dd1dc21824dd9cf3ce9a2a94743609be9facb09345dec4cb",
    ("branched-d4", "--r 2"): "7867810d3ae02016dfdc11bc91c648ab75331c88a6c78c2ffe25247d2ecb33f0",
    # recorded before faces were pruned by coordinate masks, stratum
    # dimensions read off Kilmoyer's length formula and maxima found by a
    # length sweep: the larger tables, two of them outside bench/configs
    ("alcove-d5", "--r 3"): "0cbcb63b3af7b2b3ff36cd9c864f90bffacd752f0fdd2b13d19073a9f52ba3d8",
    ("alcove-d6", "--r 2"): "b7c9e54418bd26c208f6e39398ca929f9a3ca6af313825b853c014c3b63da3b0",
    ("alcove-d6", "--r 3"): "5c5e2748e2c8bd241c9d5fc5f2158c377b73455bf75ac1fa6e96c5047afcd3c7",
    ("six-vertex-d5", "--r 1"): "0f84b06cc0d074a445d56fae3d4480143eae618a51ca68de3fd613cee1c0213b",
    ("six-vertex-d5", "--r 2"): "8883aed775fca261b5443ebd596a130db69f9522e6a5289964d1211af40a8b3b",
    # recorded before the maxima of one-simplex tables were read off the
    # translation faces and stratum ranks placed by the quiver's pair plan
    ("alcove-d7", "--r 3"): "530ec13e44ad9bcbd16727dd1da9929873bbf705656f96c85601ffb66061193c",
    # recorded before the Hasse diagram read the order once per pair of strata
    ("alcove-d5", "--r 2 --format dot"): "406efdc4418d9c6dfd635cf97c5f5f55040b499a189613e885b3d542b84a02a1",
    ("branched-d4", "--r 2 --format dot"): "4ff2691eb04dc0a22cb5e760e1fe08b13ca81c58ce13f2305164eaf58d5c0cc2",
    ("face-d5", "--r 2 --format dot"): "1c02939e0b89a200e03e75643f3e29bef6ee3b8c332ad84602b0a61fce90f18e",
}

# configurations of ADMISSIBLE_DIGESTS that are not in bench/configs; the
# six-vertex d5 one is that of test_realizable_strata_six_vertex_branched_d5
SCALE_CONFIGS = {
    "alcove-d6": (6, [[1] * i + [0] * (6 - i) for i in range(6)]),
    "alcove-d7": (7, [[1] * i + [0] * (7 - i) for i in range(7)]),
    "six-vertex-d5": (5, [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 2, 0]]),
}


@pytest.mark.parametrize("name, args", sorted(ADMISSIBLE_DIGESTS))
def test_admissible_report_is_byte_identical(tmp_path, capsys, name, args):
    if name in SCALE_CONFIGS:
        path = write_config(tmp_path, f"{name}.json", *SCALE_CONFIGS[name])
    else:
        path = str(CONFIGS / f"{name}.json")
    code, out = run(capsys, ["admissible", path, *args.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ADMISSIBLE_DIGESTS[(name, args)]


def test_reader_closing_the_pipe_early_is_not_a_crash():
    # the alcove-d5 report (207 KB) overflows the pipe, so the writer is
    # still writing when the reader leaves after one line
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "linkedgrass.cli", "admissible", str(CONFIGS / "alcove-d5.json"), "--r", "2"],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


# sha256 of the stdout of `verify all`, recorded when the admissibility
# suite became exact (Adm(mu) from Bruhat downsets, no length cap)
VERIFY_ALL_DIGEST = "f9ff2870d4c32f2dfefd2c4ffe5eee08dc4fb367aaa1aae933c0fcf7ef2a3b1e"


def test_verify_all_report_is_byte_identical(capsys):
    code, out = run(capsys, ["verify", "all"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST


json_scalars = st.one_of(
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(st.characters(min_codepoint=0, max_codepoint=0x2FFF) | st.sampled_from('"\\\n\t\x00')),
    st.frozensets(st.integers(), max_size=2),  # no JSON type: written as its str
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(st.integers() | st.floats(allow_nan=False) | st.booleans(), children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, database=None)
@given(json_values)
def test_dumps_is_the_indented_json_layout_byte_for_byte(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2, default=str)


@pytest.mark.parametrize(
    "value",
    [
        [[1, 0], [True, False]],  # bools hash as the ints 1 and 0
        [[True, False], [1, 0]],
        [(1,), [1.0]],  # 1.0 hashes as 1
        [[1.0], (1,)],
        [[0], [0.0], [-0.0]],
        [[1, 2], {"v": [1, 2]}],  # one vector at two depths
        {"a": [[[1, 2]]], "b": [1, 2]},
    ],
)
def test_dumps_encodes_equal_hashing_vectors_by_their_own_type_and_depth(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2, default=str)
