"""Every import in src/cuspcount is used where it is made.

The source is read as an AST.  A name bound by a top-level import or
from-import must appear as a name somewhere else in the module, or as the
root of an attribute chain such as intmat.det.  A name bound by an import
statement directly in a function's body must appear in that function: the CLI
handlers import the modules that only they use, and a use elsewhere in the
module does not count.  from __future__ imports are compiler directives,
not names, and are skipped.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cuspcount").glob("*.py"))


def imported_names(body):
    """(bound name, line) for each import statement of a body."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(tree):
    """(name, line) of each import that its module, or its function, never uses."""
    scopes = [tree] + [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    found = []
    for scope in scopes:
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        found += [(name, line) for name, line in imported_names(scope.body) if name not in used]
    return found


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
        (
            "def f():\n    from .counting import count_fm, ur_example\n    return count_fm(1)\n",
            ["ur_example"],
        ),
        (
            "from .genus import GenusQuery\nGenusQuery(1)\n"
            "class C:\n    def f(self):\n        from .genus import GenusQuery\n        return 1\n",
            ["GenusQuery"],
        ),
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
        "def g():\n"
        "    from .genus import GenusQuery\n"
        "    return GenusQuery\n"
    )
    assert unused_imports(ast.parse(source)) == []
