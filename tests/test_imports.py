import ast
from pathlib import Path

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


def test_weyl_has_no_bare_asserts():
    # `python -O` strips assert statements; weyl's invariants raise InvariantError
    path = Path(linkedgrass.__file__).parent / "weyl.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
