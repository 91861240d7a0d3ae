"""Every module-level import in src/cuspcount is used by its module.

The source is read as an AST.  A name bound by a top-level import or
from-import must appear as a name somewhere else in the module, or as the
root of an attribute chain such as intmat.det.  __init__.py is exempt: its
imports are the package's public re-exports.  from __future__ imports are
compiler directives, not names, and are skipped.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parent.parent / "src" / "cuspcount").glob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    """(bound name, line) for each module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"counting.py", "isotropic.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{line}: {name}" for name, line in unused_imports(tree)]
    assert found == []


@pytest.mark.parametrize(
    "snippet, unused",
    [
        ("from .discriminant import _check_budget, discriminant_form\n_check_budget(1, None)", ["discriminant_form"]),
        ("import itertools", ["itertools"]),
        ("import os.path\n", ["os"]),
        ("from math import gcd as g\ngcd(1, 2)", ["g"]),
    ],
)
def test_guard_catches(snippet, unused):
    assert [name for name, _ in unused_imports(ast.parse(snippet))] == unused


def test_guard_allows_used_names():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "from . import intmat\n"
        "from .lattices import EvenLattice\n"
        "def f(x: EvenLattice):\n"
        "    return intmat.det(itertools.chain(x))\n"
    )
    assert unused_imports(ast.parse(source)) == []
