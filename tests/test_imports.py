import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkedgrass
from linkedgrass import cli
from linkedgrass.lattice import configuration
from linkedgrass.quiver import Quiver

SOURCES = sorted(Path(linkedgrass.__file__).parent.glob("*.py"))
SRC = Path(linkedgrass.__file__).resolve().parents[1]
TRIANGLE = str(SRC.parent / "bench" / "configs" / "triangle-d3.json")


def test_no_function_local_imports():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert len(SOURCES) >= 10
    assert found == []


DYNAMIC_IMPORTS = {"import_module", "__import__", "LazyLoader"}


def dynamic_imports(path):
    """Calls, in one source file, of `importlib.import_module`, `__import__`
    or `importlib.util.LazyLoader` (under any alias), except inside the
    module-level `__getattr__` of the package's `__init__.py`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = {
        id(node)
        for func in tree.body
        if path.name == "__init__.py" and isinstance(func, ast.FunctionDef) and func.name == "__getattr__"
        for node in ast.walk(func)
    }
    names = DYNAMIC_IMPORTS | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in DYNAMIC_IMPORTS and alias.asname
    }
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in exempt and names & set(ast.unparse(node.func).split("."))
    ]
    return [f"{path.name}:{node.lineno} {ast.unparse(node.func)}" for node in sorted(calls, key=lambda n: n.lineno)]


def test_dynamic_import_guard_flags_calls_outside_the_package_getattr(tmp_path):
    snippet = (
        "import importlib, importlib.util\n"
        "from importlib import import_module as load\n"
        "def f():\n"
        "    return importlib.import_module('linkedgrass.weyl')\n"
        "__import__('json')\n"
        "importlib.util.LazyLoader.factory(None)\n"
        "importlib.util.LazyLoader(None)\n"
        "def __getattr__(name):\n"
        "    return importlib.import_module(name)\n"
        "importlib.reload(importlib)\n"
        "load('linkedgrass.gf')\n"
    )
    (tmp_path / "snippet.py").write_text(snippet)
    (tmp_path / "__init__.py").write_text(snippet)
    flagged = [
        "4 importlib.import_module",
        "5 __import__",
        "6 importlib.util.LazyLoader.factory",
        "7 importlib.util.LazyLoader",
    ]
    assert dynamic_imports(tmp_path / "snippet.py") == [
        f"snippet.py:{hit}" for hit in flagged + ["9 importlib.import_module", "11 load"]
    ]
    assert dynamic_imports(tmp_path / "__init__.py") == [f"__init__.py:{hit}" for hit in flagged + ["11 load"]]


def test_no_dynamic_imports_outside_the_package_getattr():
    # the package __getattr__ is the one place a submodule is imported late
    assert [hit for path in SOURCES for hit in dynamic_imports(path)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_bare_asserts(path):
    # `python -O` strips assert statements; the modules raise InvariantError
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def memo_dict_lines(tree):
    """Lines binding an empty dict literal to a module-level underscore name
    or, anywhere, to an underscore attribute of `self`."""
    module_level = set(map(id, tree.body))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        empty = isinstance(node.value, ast.Dict) and not node.value.keys
        if empty and any(
            isinstance(t, ast.Name) and t.id.startswith("_") and id(node) in module_level
            or isinstance(t, ast.Attribute) and t.attr.startswith("_") and ast.unparse(t.value) == "self"
            for t in targets
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_memo_dict_guard_flags_hand_rolled_tables():
    tree = ast.parse("_A: dict[int, int] = {}\n_B = {}\nC = {}\n_D = {1: 2}\ndef f():\n    _E = {}\n")
    assert memo_dict_lines(tree) == [1, 2]


def test_memo_dict_guard_flags_tables_on_self():
    tree = ast.parse(
        "class Q:\n"
        "    def __init__(self, other):\n"
        "        self._a: dict[int, int] = {}\n"
        "        self._b = {}\n"
        "        self.c = {}\n"
        "        self._d = {1: 2}\n"
        "        other._e = {}\n"
    )
    assert memo_dict_lines(tree) == [3, 4]


def test_no_module_level_memo_dicts():
    # memos are functools caches: each answers cache_info() and cache_clear()
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in memo_dict_lines(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("weyl", "_downset"),
        ("admissible", "_standard_key"),
        ("admissible", "_standard_frame"),
        ("admissible", "_column_profiles"),
        ("gf", "superspaces"),
        ("gf", "torus_reps"),
        ("gf", "vanishing_on"),
        ("gf", "project"),
        ("gf", "complement"),
        ("quiver", "_ranks_from"),
        ("quiver", "_assemble_ranks"),
        ("cli", "_int_leaf"),
    ],
)
def test_memos_answer_cache_info_and_cache_clear(module, name):
    memo = getattr(importlib.import_module(f"linkedgrass.{module}"), name)
    assert memo.cache_info().maxsize is None and callable(memo.cache_clear)


def test_entry_vertex_memo_lives_on_its_quiver():
    quiver = Quiver(configuration([(0, 0, 0), (1, 0, 0), (1, 1, 0)]))
    memo = quiver.entry_vertex
    assert memo.cache_info().maxsize is None and callable(memo.cache_clear)
    assert Quiver(quiver.config).entry_vertex is not memo


def private_reads(path):
    """`module._name` reads and `from .module import _name` imports, in one
    source file, of a single-underscore name of another package module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    private = lambda name: name.startswith("_") and not name.startswith("__")
    found = [
        f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and private(node.attr)
    ]
    found += [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if private(alias.name)
    ]
    return found


def test_private_read_guard_flags_underscore_names_of_other_modules(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "from . import quiver as qv\n"
        "from . import gf\n"
        "from .lattice import _hidden, shown\n"
        "qv._walk\n"
        "gf.rref.__wrapped__\n"
        "qv.rank_vector\n"
        "self._key\n"
    )
    assert private_reads(path) == ["snippet.py:4 qv._walk", "snippet.py:3 lattice._hidden"]


def test_no_module_reads_another_modules_private_names():
    assert [hit for path in SOURCES for hit in private_reads(path)] == []


ROOT = SRC.parent


def bench_traced():
    """(module, name) for each `linkedgrass.<module>.<name>` that
    bench/child.py wraps by getattr, read off its TRACED dict literal
    without importing anything from bench/."""
    child = ROOT / "bench" / "child.py"
    tree = ast.parse(child.read_text(), filename=str(child))
    (traced,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]
    ]
    return [(module, name) for module, names in ast.literal_eval(traced).items() for name in names]


def test_every_name_the_bench_traces_exists():
    names = bench_traced()
    assert len(names) > 20
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"linkedgrass.{module}"), name)
    ]
    assert missing == []


# kept for ROADMAP directions 5 (closed-form point counts) and 11 (random
# convex configurations), which have no caller in the package yet
UNREFERENCED_ON_PURPOSE = {"gaussian_binomial", "convex_closure"}


def unreferenced(sources, readers, traced=()):
    """`module.name` for each public top-level function and class of the
    `sources` that no other code reads, and not named in the (module, name)
    pairs of `traced`.  A read is a loaded Attribute of that identifier
    anywhere, or a loaded Name of it in its own module outside the
    definition itself or in a file that imports it by `from ... import`.
    The `cmd_*` functions, which `cli.main` dispatches by name, are left
    out, and so is UNREFERENCED_ON_PURPOSE."""
    defined, loaded = [], set()
    for path in [*sources, *readers]:
        tree = ast.parse(path.read_text(), filename=str(path))
        scope, inside = {}, {}
        for node in tree.body:
            if path in sources and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
                scope[node.name] = node.name
                inside.update((id(sub), node.name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                scope.update((alias.asname or alias.name, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in scope:
                if inside.get(id(node)) != node.id:
                    loaded.add(scope[node.id])
    return [
        f"{module}.{name}"
        for module, name in defined
        if not name.startswith(("_", "cmd_"))
        and name not in UNREFERENCED_ON_PURPOSE | loaded
        and (module, name) not in traced
    ]


def test_unreferenced_guard_counts_loads_outside_the_definition(tmp_path):
    (tmp_path / "lib.py").write_text(
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Node:\n"
        "    def copy(self): return Node()\n"
        "class Shown: pass\n"
        "def stored(): pass\n"
        "def shadowed(): pass\n"
        "def aliased(): pass\n"
        "def traced(): pass\n"
        "def _private(): pass\n"
        "def cmd_run(args): return 0\n"
        "def gaussian_binomial(n, k, p): return 1\n"
        "# text_only is named in a comment\n"
        "def text_only(): pass\n"
    )
    (tmp_path / "reader.py").write_text(
        "import lib\n"
        "from lib import aliased as a\n"
        "lib.used()\n"
        "x = lib.Shown\n"
        "stored = 1\n"
        "lib.stored = 2\n"
        "shadowed = a()\n"
        "print(shadowed, 'text_only')\n"
    )
    sources, readers = [tmp_path / "lib.py"], [tmp_path / "reader.py"]
    assert unreferenced(sources, readers, [("lib", "traced")]) == [
        "lib.recursive",
        "lib.Node",
        "lib.stored",
        "lib.shadowed",
        "lib.text_only",
    ]
    assert unreferenced(sources, []) == [
        "lib.used",
        "lib.recursive",
        "lib.Node",
        "lib.Shown",
        "lib.stored",
        "lib.shadowed",
        "lib.aliased",
        "lib.traced",
        "lib.text_only",
    ]


def test_every_public_name_has_a_reader_outside_the_tests():
    # a name only the tests read belongs in the tests (ROADMAP direction 12)
    readers = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert unreferenced(SOURCES, readers, bench_traced()) == []


def fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with `src/` on its path, run on `args`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def loaded_after(code: str) -> list[str]:
    """The `linkedgrass.*` submodules a fresh interpreter holds after `code`."""
    dump = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('linkedgrass.'))))"
    result = fresh("-c", f"{code}\n{dump}")
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import linkedgrass") == []


def test_star_import_loads_every_submodule():
    assert loaded_after("from linkedgrass import *") == [f"linkedgrass.{name}" for name in linkedgrass.__all__]


STRATA_MODULES = ["admissible", "cli", "gf", "independence", "lattice", "quiver", "weyl"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        pytest.param(["admissible", TRIANGLE, "--r", "1"], STRATA_MODULES, id="admissible"),
        pytest.param(["strata", TRIANGLE, "--r", "1", "--p", "2"], STRATA_MODULES, id="strata"),
        pytest.param(["multidegree", "kn", "--n", "3"], sorted(STRATA_MODULES + ["multidegree"]), id="multidegree"),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    code = (
        "import contextlib, io\n"
        "from linkedgrass import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "if code: raise SystemExit(code)"
    )
    assert loaded_after(code) == [f"linkedgrass.{name}" for name in modules]


@pytest.mark.parametrize("argv", [["verify", "weyl", "--d", "3"], ["multidegree", "kn", "--n", "3"]], ids=lambda a: a[0])
def test_lazily_loaded_commands_run_in_a_fresh_interpreter(argv, capsys):
    result = fresh("-m", "linkedgrass.cli", *argv)
    assert result.returncode == 0, result.stderr
    assert cli.main(argv) == 0
    assert result.stdout == capsys.readouterr().out


def test_package_attributes_are_the_submodules():
    for name in linkedgrass.__all__:
        assert getattr(linkedgrass, name) is importlib.import_module(f"linkedgrass.{name}")


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="nonsense"):
        linkedgrass.nonsense
