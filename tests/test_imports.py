import ast
import importlib
from pathlib import Path

import pytest

import linkedgrass

SOURCES = sorted(Path(linkedgrass.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_bare_asserts(path):
    # `python -O` strips assert statements; the modules raise InvariantError
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def memo_dict_lines(tree):
    """Lines binding an empty dict literal to a module-level underscore name."""
    lines = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        empty = isinstance(node.value, ast.Dict) and not node.value.keys
        if empty and any(isinstance(t, ast.Name) and t.id.startswith("_") for t in targets):
            lines.append(node.lineno)
    return lines


def test_memo_dict_guard_flags_hand_rolled_tables():
    tree = ast.parse("_A: dict[int, int] = {}\n_B = {}\nC = {}\n_D = {1: 2}\ndef f():\n    _E = {}\n")
    assert memo_dict_lines(tree) == [1, 2]


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
        ("weyl", "_ball"),
        ("weyl", "_stabilizer"),
        ("weyl", "double_coset_min"),
        ("weyl", "minmax_rep"),
        ("admissible", "_standard_key"),
        ("admissible", "_standard_frame"),
        ("gf", "subspaces"),
        ("gf", "superspaces"),
        ("gf", "vanishing_on"),
        ("gf", "project"),
        ("gf", "complement"),
        ("quiver", "_ranks_from"),
        ("quiver", "_assemble_ranks"),
    ],
)
def test_memos_answer_cache_info_and_cache_clear(module, name):
    memo = getattr(importlib.import_module(f"linkedgrass.{module}"), name)
    assert memo.cache_info().maxsize is None and callable(memo.cache_clear)
