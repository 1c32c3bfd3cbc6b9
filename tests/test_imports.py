import ast
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


@pytest.mark.parametrize("name", ["weyl.py", "admissible.py", "quiver.py"])
def test_no_bare_asserts(name):
    # `python -O` strips assert statements; these modules raise InvariantError
    path = Path(linkedgrass.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
