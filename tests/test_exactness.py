"""The package computes exactly: no floating point anywhere in src/cuspcount.

The source is read as an AST, so comments and strings do not count.  Banned:
float literals, float(...), math.sqrt/log/exp (as attributes or imports)
and the true-division operator /, which turns ints into floats.  Rationals
are built as Fraction(n, d).
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cuspcount").glob("*.py"))
FLOAT_MATH = {"sqrt", "log", "exp"}


def inexact_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division /"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node, "float(...)"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            yield node, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    yield node, f"from math import {alias.name}"


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"intmat.py", "lattices.py", "isotropic.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{node.lineno}: {what}" for node, what in inexact_nodes(tree)]
    assert found == []


@pytest.mark.parametrize(
    "snippet",
    ["x = 0.5", "y = a / b", "y /= 2", "z = float(n)", "r = math.sqrt(2)", "from math import log"],
)
def test_guard_catches(snippet):
    assert list(inexact_nodes(ast.parse(snippet)))


def test_guard_allows_exact_code():
    source = "from math import gcd, isqrt\nq = a // b\nr = Fraction(1, 3)\ns = math.isqrt(n)"
    assert list(inexact_nodes(ast.parse(source))) == []
