"""Golden CLI snapshot.

tests/golden/cli_snapshot.json records, for each command, its argv, exit
code, stdout and stderr.  Each command is replayed in-process through
cuspcount.cli.main and must reproduce all three byte for byte.  Lattice and
hodge files live next to the snapshot; "{golden}" in an argv stands for
their directory, so no path of the checkout enters the recorded text.
"""

import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cuspcount.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cli_snapshot.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", CASES, ids=[" ".join(c["argv"]).replace("{golden}/", "") for c in CASES]
)
def test_cli_matches_snapshot(case, monkeypatch):
    monkeypatch.delenv("CUSPCOUNT_BUDGET", raising=False)
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
    assert err.getvalue() == case["stderr"]


def test_snapshot_in_one_process_forward_and_reversed(monkeypatch):
    """Every command, run after all the others in one interpreter, in both
    orders: no cache shared across queries may change an answer."""
    monkeypatch.delenv("CUSPCOUNT_BUDGET", raising=False)
    for case in CASES + CASES[::-1]:
        argv = [arg.replace("{golden}", str(GOLDEN)) for arg in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue(), err.getvalue()) == (case["exit"], case["stdout"], case["stderr"])


def test_snapshot_covers_every_subcommand():
    subcommands = {case["argv"][0] for case in CASES}
    assert subcommands == {
        "disc", "aut", "isogenus", "isotropic", "transvect",
        "classify-i1", "genus", "fm", "cusps", "verify-ur",
    }
