"""The package raises real errors for its invariants: `python -O` strips
assert statements, so none may appear in the sources.  Every bound and
count is an exact integer computation, so the sources hold no true
division and no float literal either."""

import ast
from pathlib import Path

import reflectron

SOURCES = sorted(Path(reflectron.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"arith.py", "cli.py", "reflection.py"}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_floating_point():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
        or (isinstance(node, ast.Constant) and isinstance(node.value, float))
    ]
    assert found == []
