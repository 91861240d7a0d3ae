"""Arguments below their range exit 2 as bad arguments.

A budget below 1, a height bound below 1 on the built-in U(r) route or for
fm count, an isotropic divisor filter below 1, and a verify-ur range without
any r > 2 are validation errors, not a budget overrun, a certified answer or
a pass over nothing.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import U
from cuspcount import counting
from cuspcount.cli import main
from cuspcount.counting import K3Model, count_fm_elliptic
from cuspcount.discriminant import resolve_budget
from cuspcount.errors import BadParams, ZeroVector


def run_cli(*argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def _no_budget_env(monkeypatch):
    monkeypatch.delenv("CUSPCOUNT_BUDGET", raising=False)


class TestBudgetBelowOne:
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_cli_exits_2(self, budget):
        assert run_cli("aut", "U(2)", "--budget", budget) == (
            2, "", f"cuspcount: the budget must be at least 1, got {budget}\n"
        )

    def test_env_exits_2(self, monkeypatch):
        monkeypatch.setenv("CUSPCOUNT_BUDGET", "-5")
        assert run_cli("aut", "U(2)") == (
            2, "", "cuspcount: CUSPCOUNT_BUDGET must be at least 1, got -5\n"
        )

    @pytest.mark.parametrize("budget", [0, -1])
    def test_resolve_budget_raises(self, budget):
        with pytest.raises(BadParams):
            resolve_budget(budget)

    def test_budget_of_one_is_a_budget(self):
        assert resolve_budget(1) == 1
        code, out, err = run_cli("aut", "U(2)", "--budget", "1")
        assert (code, out) == (3, "")
        assert err == "cuspcount: budget exceeded: |A| = 4 exceeds the budget 1\n"


class TestBudgetCheckedUpFront:
    """main resolves the budget before any command runs, so commands that
    guard no enumeration reject a bad one too."""

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("argv", [("disc", "U(2)"), ("isotropic", "U(2)+U")])
    def test_cli_exits_2(self, argv, budget):
        assert run_cli(*argv, "--budget", budget) == (
            2, "", f"cuspcount: the budget must be at least 1, got {budget}\n"
        )

    def test_malformed_env_exits_2(self, monkeypatch):
        monkeypatch.setenv("CUSPCOUNT_BUDGET", "abc")
        assert run_cli("disc", "U(2)") == (
            2, "", "cuspcount: CUSPCOUNT_BUDGET must be an integer, got 'abc'\n"
        )


class TestHeightBoundBelowOne:
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_ur_route_exits_2(self, bound):
        expected = run_cli("cusps", "U(2)", "--div", "2", "--bound", "0")
        assert expected == (2, "", "cuspcount: height bound must be positive\n")
        assert run_cli("fm", "elliptic", "U(6)", "--bound", bound) == expected

    def test_fm_count_exits_2(self):
        assert run_cli("fm", "count", "U(6)", "--bound", "0") == (
            2, "", "cuspcount: height bound must be positive\n"
        )

    def test_library_raises(self):
        with pytest.raises(ZeroVector):
            count_fm_elliptic(K3Model.generic(U(6)), height_bound=0)


class TestCuspsValidateBeforeScan:
    """cusps rejects a bad divisor or an exceeded budget before it walks the
    window for a section vector."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        calls = []
        real = counting.section_vector

        def spy(lattice, height_bound):
            calls.append(lattice)
            return real(lattice, height_bound)

        monkeypatch.setattr(counting, "section_vector", spy)
        return calls

    def test_divisor_zero_scans_nothing(self, scans):
        assert run_cli("cusps", "U(2)", "--div", "0") == (
            2, "", "cuspcount: the order d must be at least 1, got 0\n"
        )
        assert scans == []

    def test_budget_exceeded_scans_nothing(self, scans):
        assert run_cli("cusps", "U(6)", "--div", "2", "--budget", "5") == (
            3, "", "cuspcount: budget exceeded: |A| = 36 exceeds the budget 5\n"
        )
        assert scans == []

    def test_valid_query_scans_once(self, scans):
        assert run_cli("cusps", "U(2)", "--div", "2")[0] == 0
        assert len(scans) == 1

    def test_height_bound_message_comes_first(self, scans):
        assert run_cli("cusps", "U(2)", "--div", "0", "--bound", "0") == (
            2, "", "cuspcount: height bound must be positive\n"
        )
        assert scans == []


class TestVerifyUrChecksSomething:
    @pytest.mark.parametrize(
        "argv", [("--r", "0", "--max-r", "2"), ("--r", "2"), ("--r", "5", "--max-r", "4")]
    )
    def test_no_r_above_2_exits_2(self, argv):
        code, out, err = run_cli("verify-ur", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("cuspcount: verify-ur needs some r > 2")

    def test_range_reaching_3_runs(self):
        code, out, err = run_cli("verify-ur", "--r", "0", "--max-r", "3")
        assert (code, err) == (0, "")
        assert '"r": 3' in out and '"all_passed": true' in out


class TestIsotropicDivisorBelowOne:
    @pytest.mark.parametrize("div", ["0", "-2"])
    def test_exits_2(self, div):
        assert run_cli("isotropic", "U+diag(-2)", "--bound", "1", "--div", div) == (
            2, "", f"cuspcount: the divisor must be at least 1, got {div}\n"
        )

    def test_filter_keeps_exactly_the_divisor_vectors(self):
        code, out, err = run_cli("isotropic", "U(2)+U", "--bound", "2")
        assert (code, err) == (0, "")
        every = json.loads(out)["vectors"]
        code, out, err = run_cli("isotropic", "U(2)+U", "--bound", "2", "--div", "2")
        assert (code, err) == (0, "")
        kept = json.loads(out)["vectors"]
        assert kept == [v for v in every if v["divisor"] == 2]
        assert kept and len(kept) < len(every)
