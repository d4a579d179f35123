"""The package raises real errors for its invariants: `python -O` strips
assert statements, so none may appear in the sources.  Every bound and
count is an exact integer computation, so the sources hold no true
division, no float literal, no float() call and no math function
beyond the integer-valued ones either."""

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


# the math functions that take and return integers only
INTEGER_MATH = {"gcd", "isqrt", "lcm", "comb", "perm", "factorial"}


def _is_float(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" and any(a.name not in INTEGER_MATH for a in node.names)
    if isinstance(node, ast.Attribute):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        )
    return False


def test_no_floating_point():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_float(node)
    ]
    assert found == []
