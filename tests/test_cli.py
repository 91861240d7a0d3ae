import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from cuspcount.cli import build_parser, lattice_from_arg, main, parse_lattice_spec
from cuspcount.errors import BadParams, ParseError
from cuspcount.lattices import direct_sum, named_lattice


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestParse:
    def test_sum(self):
        assert parse_lattice_spec("U(6)+U").gram == direct_sum(
            named_lattice("U", (6,)), named_lattice("U")
        ).gram

    def test_diag(self):
        assert parse_lattice_spec("diag(-2)+U").gram == direct_sum(
            named_lattice("diag", (-2,)), named_lattice("U")
        ).gram

    def test_whitespace_insensitive(self):
        assert parse_lattice_spec(" U( 6 ) + U ").gram == parse_lattice_spec("U(6)+U").gram

    def test_degenerate_param(self):
        with pytest.raises(BadParams):
            parse_lattice_spec("U(0)")

    def test_error_offset(self):
        with pytest.raises(ParseError) as info:
            parse_lattice_spec("U(6)*U")
        assert info.value.offset == 4

    def test_unknown_name_offset(self):
        with pytest.raises(ParseError) as info:
            parse_lattice_spec("U+Q(3)")
        assert info.value.offset == 2

    def test_e8(self):
        assert parse_lattice_spec("E8").rank == 8

    def test_negative_diag_entries(self):
        assert parse_lattice_spec("diag(-2,4)").gram == ((-2, 0), (0, 4))

    def test_root_convention_flag(self):
        code, out = run_cli("disc", "A(2)", "--root-convention", "pos")
        assert code == 0
        assert json.loads(out)["gram"] == [[2, -1], [-1, 2]]
        code, out = run_cli("disc", "A(2)")
        assert json.loads(out)["gram"] == [[-2, 1], [1, -2]]


class TestLatticeFiles:
    def test_gram_file(self, tmp_path):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"gram": [[0, 3], [3, 0]], "name": "U(3)"}))
        assert lattice_from_arg(str(path)).gram == ((0, 3), (3, 0))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[2]]}))
        code, _ = run_cli("disc", str(path))
        assert code == 2


class TestCommands:
    def test_disc_u4(self):
        code, out = run_cli("disc", "U(4)")
        assert code == 0
        report = json.loads(out)
        assert report["invariant_factors"] == [4, 4]
        assert report["b_matrix"][0][1] == "1/4"
        assert report["q_values"] == ["0", "0"]
        assert report["schema_version"] == "1"

    def test_aut_u12(self):
        code, out = run_cli("aut", "U(12)")
        report = json.loads(out)
        assert code == 0
        assert report["order"] == 16

    def test_isogenus(self):
        code, out = run_cli("isogenus", "U(3)+U", "U+U(3)")
        report = json.loads(out)
        assert code == 0
        assert report["isogenus"] is True
        assert report["witness"] is not None
        code, out = run_cli("isogenus", "U", "U(2)")
        assert json.loads(out)["isogenus"] is False

    def test_isotropic(self):
        code, out = run_cli("isotropic", "U(3)", "--bound", "2")
        report = json.loads(out)
        assert [v["vector"] for v in report["vectors"]] == [[0, 1], [1, 0]]
        assert all(v["divisor"] == 3 for v in report["vectors"])

    def test_cusps_u2(self):
        code, out = run_cli("cusps", "U(2)", "--div", "2")
        report = json.loads(out)
        assert code == 0
        assert report["value"] == 2
        assert report["route"] == "orbit_on_A"

    def test_fm_count(self):
        code, out = run_cli("fm", "count", "U(12)")
        assert json.loads(out)["value"] == 4

    def test_fm_twisted(self):
        code, out = run_cli("fm", "twisted", "U(2)", "--d", "2")
        assert json.loads(out)["value"] == 2

    def test_fm_elliptic(self):
        code, out = run_cli("fm", "elliptic", "U(5)")
        assert json.loads(out)["value"] == 4
        code, out = run_cli("fm", "elliptic", "U+diag(-4)", "--section")
        assert json.loads(out)["value"] == 1

    def test_genus(self):
        code, out = run_cli("genus", "--sign", "1,1", "--disc", "U(5)", "--bound", "30")
        report = json.loads(out)
        assert report["count"] == 1
        assert report["representatives"] == [[[0, 5], [5, 0]]]

    def test_transvect(self):
        code, out = run_cli(
            "transvect", "U+U", "--l", "0,1,0,0", "--m", "1,0,0,0", "--v", "0,0,1,1"
        )
        report = json.loads(out)
        assert code == 0
        assert report["fixes_l"] is True
        assert report["trivial_on_discriminant"] is True

    def test_classify_i1(self):
        code, out = run_cli("classify-i1", "U+U(3)", "--bound", "2")
        report = json.loads(out)
        assert len(report["classes"]) == 1

    def test_verify_ur(self):
        code, out = run_cli("verify-ur", "--r", "3")
        report = json.loads(out)
        assert code == 0
        assert report["all_passed"] is True
        item = report["results"][0]
        assert (
            item["fm"]["value"],
            item["fm_ell"]["value"],
            item["mu1_fiber"]["value"],
            item["cusps_one_dim"],
        ) == (1, 2, 1, 2)
        assert item["one_dim_distinct"] is True

    def test_table_mode(self):
        code, out = run_cli("cusps", "U(2)", "--div", "2", "--table")
        assert code == 0
        assert "value: 2" in out

    def test_hodge_file(self, tmp_path):
        # the full automorphism group of A_{U(3)} as the allowed symmetries
        path = tmp_path / "hodge.json"
        path.write_text(
            json.dumps({"generators": [[[0, 1], [1, 0]], [[2, 0], [0, 2]]]})
        )
        code, out = run_cli("fm", "elliptic", "U(3)", "--hodge", str(path))
        assert code == 0
        assert json.loads(out)["value"] == 1

    def test_hodge_file_rejects_bad_matrix(self, tmp_path):
        path = tmp_path / "hodge.json"
        path.write_text(json.dumps({"generators": [[[1, 1], [0, 1]]]}))
        code, _ = run_cli("fm", "count", "U(3)", "--hodge", str(path))
        assert code == 2


class TestExitCodes:
    def test_validation_error(self):
        code, _ = run_cli("disc", "U(0)")
        assert code == 2

    def test_parse_error(self):
        code, _ = run_cli("disc", "U**")
        assert code == 2

    def test_budget_exceeded(self):
        code, _ = run_cli("aut", "U(11)", "--budget", "100")
        assert code == 3

    def test_genus_budget_exceeded(self, capsys):
        code, out = run_cli("genus", "--sign", "1,1", "--disc", "U(30)", "--bound", "901", "--budget", "1")
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == "cuspcount: budget exceeded: |A| = 900 exceeds the budget 1\n"

    def test_classify_i1_budget_exceeded(self, capsys):
        code, out = run_cli("classify-i1", "U+U(3)", "--bound", "2", "--budget", "3")
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == "cuspcount: budget exceeded: |A| = 9 exceeds the budget 3\n"

    def test_budget_env(self, monkeypatch):
        monkeypatch.setenv("CUSPCOUNT_BUDGET", "100")
        code, _ = run_cli("aut", "U(11)")
        assert code == 3
        monkeypatch.setenv("CUSPCOUNT_BUDGET", "10000")
        code, _ = run_cli("aut", "U(11)")
        assert code == 0

    def test_malformed_budget_env(self, monkeypatch, capsys):
        monkeypatch.setenv("CUSPCOUNT_BUDGET", "abc")
        code, out = run_cli("aut", "U(2)")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "cuspcount: CUSPCOUNT_BUDGET must be an integer, got 'abc'\n"
        )

    @staticmethod
    def _assert_validation_error(capsys, *argv):
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("cuspcount: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("cusps", "U(2)", "--div", "0"),
            ("cusps", "U(2)", "--div", "-2"),
            ("fm", "twisted", "U(2)", "--d", "0"),
        ],
    )
    def test_divisor_below_one(self, capsys, argv):
        self._assert_validation_error(capsys, *argv)

    @pytest.mark.parametrize("gram", [5, [5], [["a"]], [[0, 1], [1]], None])
    def test_malformed_lattice_file(self, tmp_path, capsys, gram):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"gram": gram}))
        self._assert_validation_error(capsys, "disc", str(path))

    @pytest.mark.parametrize("generators", [[5], [[["a"]]], [[[1, 0], [0]]]])
    def test_malformed_hodge_file(self, tmp_path, capsys, generators):
        path = tmp_path / "hodge.json"
        path.write_text(json.dumps({"generators": generators}))
        self._assert_validation_error(capsys, "cusps", "U(3)", "--div", "1", "--hodge", str(path))

    @pytest.mark.parametrize(
        "name, content, argv",
        [
            ("gram.json", {"gram": [[False, True], [True, False]]}, ("disc",)),
            ("gram.json", {"gram": [[True, 0], [0, -2]]}, ("disc",)),
            ("hodge.json", {"generators": [[[True, 0], [0, True]]]}, ("fm", "count", "U(3)", "--hodge")),
            ("hodge.json", {"generators": [[[0, 1], [True, 0]]]}, ("fm", "count", "U(3)", "--hodge")),
        ],
    )
    def test_boolean_entries_are_not_integers(self, tmp_path, capsys, name, content, argv):
        # JSON true/false would otherwise read as 1/0 and pass as U or the identity
        path = tmp_path / name
        path.write_text(json.dumps(content))
        code, out = run_cli(*argv, str(path))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "cuspcount: expected a matrix: equal-length rows of integers\n"

    def test_directory_as_lattice_file(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.mkdir()
        self._assert_validation_error(capsys, "disc", str(path))

    def test_undecodable_lattice_file(self, tmp_path, capsys):
        path = tmp_path / "gram.json"
        path.write_bytes(b"\xff\xfe")
        self._assert_validation_error(capsys, "disc", str(path))

    def test_missing_lattice_file_message(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        code, _ = run_cli("disc", str(path))
        assert code == 2
        assert capsys.readouterr().err == (
            f"cuspcount: [Errno 2] No such file or directory: {str(path)!r}\n"
        )

    @pytest.mark.parametrize(
        "vectors",
        [
            ("--m", "1,0,0", "--v", "0,0,1,1"),
            ("--m", "1,0,0,0", "--v", "0,0,1,1,5"),
            ("--v", "0,0,1"),
        ],
    )
    def test_transvect_vector_length(self, capsys, vectors):
        self._assert_validation_error(capsys, "transvect", "U+U", "--l", "0,1,0,0", *vectors)


class TestFrontDoor:
    SUBCOMMANDS = (
        "disc", "aut", "isogenus", "isotropic", "transvect",
        "classify-i1", "genus", "fm", "cusps", "verify-ur",
    )

    def test_parser_built_once(self, monkeypatch):
        built = []
        original = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_cli("disc", "U(4)")[0] == 0
        first = len(built)
        assert run_cli("cusps", "U(2)", "--div", "2")[0] == 0
        assert run_cli("verify-ur", "--r", "3")[0] == 0
        assert first > 0 and len(built) == first

    @pytest.mark.parametrize("argv", [()] + [(cmd,) for cmd in SUBCOMMANDS])
    def test_help_exits_0_with_usage_on_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--help"])
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: " + " ".join(("cuspcount",) + argv))
        assert captured.err == ""


class TestReportContracts:
    def test_schema_validation(self):
        import importlib.resources as resources

        import jsonschema

        schema = json.loads(
            resources.files("cuspcount").joinpath("report_schema.json").read_text()
        )
        for argv in (
            ["disc", "U(4)"],
            ["aut", "U(6)"],
            ["isogenus", "U", "U(2)"],
            ["isotropic", "U(2)", "--bound", "2"],
            ["cusps", "U(2)", "--div", "2"],
            ["fm", "count", "U(3)"],
            ["fm", "twisted", "U(2)", "--d", "2"],
            ["fm", "elliptic", "U(3)"],
            ["genus", "--sign", "1,1", "--disc", "U(3)", "--bound", "12"],
            ["transvect", "U+U", "--l", "0,1,0,0", "--m", "1,0,0,0", "--v", "0,0,1,1"],
            ["classify-i1", "U+U", "--bound", "2"],
            ["verify-ur", "--r", "3"],
        ):
            code, out = run_cli(*argv)
            assert code == 0, argv
            jsonschema.validate(json.loads(out), schema)

    def test_determinism_byte_identical(self):
        commands = [
            ["disc", "U(4)"],
            ["cusps", "U(2)", "--div", "2"],
            ["fm", "elliptic", "U(6)"],
            ["verify-ur", "--r", "3", "--max-r", "6"],
        ]
        first = [run_cli(*argv)[1] for argv in commands]
        second = [run_cli(*argv)[1] for argv in commands]
        assert first == second

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cuspcount.cli", "disc", "U(3)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["invariant_factors"] == [3, 3]


class TestHodgeValidation:
    @pytest.mark.parametrize(
        "matrix",
        [
            [[1, 0, 0], [0, 1, 0]],  # wrong shape
            [[1, 0], [0, 0]],  # not invertible
            [[1, 0], [1, 1]],  # q not preserved
            [[1, 0], [0, 2]],  # b not preserved
        ],
    )
    def test_non_isometry_generator_exits_2(self, tmp_path, capsys, matrix):
        path = tmp_path / "hodge.json"
        path.write_text(json.dumps({"generators": [[[0, 1], [1, 0]], matrix]}))
        code, out = run_cli("cusps", "U(3)", "--div", "1", "--hodge", str(path))
        assert code == 2
        assert out == ""
        assert "cuspcount:" in capsys.readouterr().err
