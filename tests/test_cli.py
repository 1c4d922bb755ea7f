"""End-to-end command-line tests: every subcommand, every exit code."""

import json

import pytest

from liftcert.cli import (
    EXIT_GUARD,
    EXIT_INPUT_ERROR,
    EXIT_NOT_A_LIFTING,
    EXIT_OK,
    EXIT_RESIDUE_EXCLUDED,
    main,
)

GAUSS2 = {
    "prime": 3,
    "pairs": [
        {"kind": "rational_center", "center": "0", "delta": "0"},
        {"kind": "rational_center", "center": "0", "delta": "0"},
    ],
}
EIS2 = {
    "prime": 2,
    "pairs": [{"kind": "rational_center", "center": "0", "delta": "1/2"}],
}
SHARED_E2 = {
    "prime": 2,
    "pairs": [
        {"kind": "rational_center", "center": "0", "delta": "1/2"},
        {"kind": "rational_center", "center": "0", "delta": "1/2"},
    ],
}
INERT9 = {
    "prime": 3,
    "pairs": [
        {"kind": "inert", "phi": [1, 0, 1], "delta": "1/2"},
        {"kind": "rational_center", "center": "0", "delta": "1/3"},
    ],
}


@pytest.fixture
def pairs_file(tmp_path):
    def write(doc, name="pairs.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


class TestCertify:
    def test_certified_exit_0(self, pairs_file, capsys):
        code = main([
            "certify", "--prime", "3", "--vars", "x,y",
            "--pairs", pairs_file(GAUSS2),
            "x^2*y^2+3*x*y+6*x+3*y+1",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verdict: Certified" in out

    def test_reducible_exit_3(self, pairs_file, capsys):
        code = main([
            "certify", "--prime", "3", "--vars", "x,y",
            "--pairs", pairs_file(GAUSS2), "x^2*y^2-1",
        ])
        assert code == EXIT_RESIDUE_EXCLUDED
        assert "ResidueReducible" in capsys.readouterr().out

    def test_residue_is_variable_exit_3(self, pairs_file, capsys):
        code = main([
            "certify", "--prime", "2", "--vars", "x",
            "--pairs", pairs_file(EIS2), "x^2+2*x+4",
        ])
        assert code == EXIT_RESIDUE_EXCLUDED
        assert "ResidueIsVariable" in capsys.readouterr().out

    def test_not_a_lifting_exit_2(self, pairs_file, capsys):
        code = main([
            "certify", "--prime", "2", "--vars", "x",
            "--pairs", pairs_file(EIS2), "2*x",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_A_LIFTING
        assert "NotALifting" in out
        # the mismatched quantities appear in the diagnosis
        assert "degree_in_x1" in out and "1" in out and "2" in out

    def test_parse_error_exit_4(self, pairs_file, capsys):
        code = main([
            "certify", "--prime", "3", "--vars", "x,y",
            "--pairs", pairs_file(GAUSS2), "x^-1",
        ])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err != ""

    def test_prime_mismatch_exit_4(self, pairs_file, capsys):
        code = main([
            "certify", "--prime", "5", "--vars", "x,y",
            "--pairs", pairs_file(GAUSS2), "x*y+1",
        ])
        assert code == EXIT_INPUT_ERROR

    def test_missing_pairs_file_exit_4(self, tmp_path, capsys):
        code = main([
            "certify", "--prime", "3", "--vars", "x,y",
            "--pairs", str(tmp_path / "nope.json"), "x*y+1",
        ])
        assert code == EXIT_INPUT_ERROR

    def test_guard_exit_5(self, pairs_file, capsys):
        code = main([
            "certify", "--vars", "x,y", "--pairs", pairs_file(GAUSS2),
            "--limit", "1", "x^2*y^2+3*x*y+6*x+3*y+1",
        ])
        assert code == EXIT_GUARD
        assert "limit" in capsys.readouterr().err

    def test_json_certificate_round_trip(self, pairs_file, capsys):
        args = [
            "certify", "--json", "--vars", "x,y",
            "--pairs", pairs_file(GAUSS2), "x^2*y^2+3*x*y+6*x+3*y+1",
        ]
        assert main(args) == EXIT_OK
        text = capsys.readouterr().out
        doc = json.loads(text)
        # parse -> re-emit is byte-identical
        assert json.dumps(doc, indent=2) + "\n" == text
        assert doc["verdict"] == "Certified"
        assert doc["t"] == [2, 2]
        assert doc["T"]["text"] == "Z1^2*Z2^2 + 1"


class TestExpand:
    def test_table(self, pairs_file, capsys):
        code = main([
            "expand", "--vars", "x,y", "--pairs", pairs_file(GAUSS2),
            "x^2*y^2+3*x*y+1",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "a_[0, 0]" in out and "a_[2, 2]" in out

    def test_json(self, pairs_file, capsys):
        code = main([
            "expand", "--json", "--vars", "x", "--pairs", pairs_file(EIS2),
            "x^2+2",
        ])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert {"index": [0], "digit": "2", "content": "1"} in doc


class TestValue:
    def test_text(self, pairs_file, capsys):
        code = main([
            "value", "--vars", "x", "--pairs", pairs_file(EIS2), "x^2+2",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "w(f) = 1" in out
        assert "w_x(f) = 1" in out
        assert "[0]" in out and "[2]" in out

    def test_json(self, pairs_file, capsys):
        code = main([
            "value", "--json", "--vars", "x,y", "--pairs",
            pairs_file(GAUSS2), "3*x*y+9",
        ])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["w"] == "1"
        assert doc["contributing"] == [[1, 1]]


class TestResidue:
    def test_prints_residue(self, pairs_file, capsys):
        code = main([
            "residue", "--vars", "x,y", "--pairs", pairs_file(GAUSS2),
            "x^2*y^2+3*x*y+6*x+3*y+1",
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "Z1^2*Z2^2 + 1"

    def test_json_document(self, pairs_file, capsys):
        code = main([
            "residue", "--json", "--vars", "x", "--pairs", pairs_file(EIS2),
            "x^2+2",
        ])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["p"] == 2
        assert doc["coeffs"] == [
            {"exp": [1], "c": "1"},
            {"exp": [0], "c": "1"},
        ]

    def test_not_normalized_exit_2(self, pairs_file, capsys):
        code = main([
            "residue", "--vars", "x", "--pairs", pairs_file(EIS2), "2*x",
        ])
        assert code == EXIT_NOT_A_LIFTING
        assert "not a lifting" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "residue"])
    def test_shared_ramification_exit_2(self, pairs_file, capsys, command):
        code = main([
            command, "--vars", "x,y", "--pairs", pairs_file(SHARED_E2),
            "x^2*y^2 + 2*x*y + 4",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_NOT_A_LIFTING
        assert ("condition (iii) failed: contributing_index_x1: "
                "1 in (1, 1) != a multiple of e_1 = 2") in (
                    captured.out + captured.err)

    @pytest.mark.parametrize("doc,expr,check", [
        (GAUSS2, "x^2*y^2+x^3*y", "total_degree"),
        (EIS2, "3*x^2+2", "monic_leading_coefficient"),
    ])
    def test_rejected_like_certify(self, pairs_file, capsys, doc, expr,
                                   check):
        names = "x,y" if len(doc["pairs"]) == 2 else "x"
        code = main([
            "residue", "--vars", names, "--pairs", pairs_file(doc), expr,
        ])
        captured = capsys.readouterr()
        assert code == EXIT_NOT_A_LIFTING
        assert captured.out == ""
        assert "condition (i) failed: " + check in captured.err


class TestGenerate:
    def test_round_trip_through_files(self, pairs_file, tmp_path, capsys):
        pairs = pairs_file(EIS2)
        assert main([
            "residue", "--json", "--vars", "x", "--pairs", pairs, "x^2+2",
        ]) == EXIT_OK
        residue_doc = capsys.readouterr().out
        tfile = tmp_path / "T.json"
        tfile.write_text(residue_doc)
        code = main([
            "generate", "--vars", "x", "--pairs", pairs, str(tfile),
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "x^2 + 2"

    def test_seeded_output_still_certifies(self, pairs_file, tmp_path,
                                           capsys):
        pairs = pairs_file(INERT9)
        tfile = tmp_path / "T.json"
        tfile.write_text(json.dumps({
            "p": 3,
            "coeffs": [{"exp": [1, 1], "c": "1"}, {"exp": [0, 0], "c": "y1"}],
        }))
        code = main([
            "generate", "--seed", "2", "--vars", "x,y", "--pairs", pairs,
            str(tfile),
        ])
        assert code == EXIT_OK
        generated = capsys.readouterr().out.strip()
        code = main([
            "certify", "--vars", "x,y", "--pairs", pairs, generated,
        ])
        assert code == EXIT_OK

    def test_unliftable_exit_4(self, pairs_file, tmp_path, capsys):
        pairs = pairs_file(GAUSS2)
        tfile = tmp_path / "T.json"
        tfile.write_text(json.dumps({
            "p": 3, "coeffs": [{"exp": [1, 0], "c": "1"}],
        }))
        code = main([
            "generate", "--vars", "x,y", "--pairs", pairs, str(tfile),
        ])
        assert code == EXIT_INPUT_ERROR


    @pytest.mark.parametrize("doc", [{"p": 3}, [1, 2]],
                             ids=["no-coeffs", "list"])
    def test_malformed_residue_document_exit_4(self, pairs_file, tmp_path,
                                               capsys, doc):
        tfile = tmp_path / "T.json"
        tfile.write_text(json.dumps(doc))
        code = main([
            "generate", "--vars", "x,y", "--pairs", pairs_file(GAUSS2),
            str(tfile),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "malformed residue document" in capsys.readouterr().err


class TestFactorOracle:
    def test_factors(self, capsys):
        code = main(["factor-oracle", "--vars", "x,y", "x^2*y^2-1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "(x*y + 1)" in out and "(x*y - 1)" in out

    def test_irreducible_json(self, capsys):
        code = main([
            "factor-oracle", "--json", "--vars", "x,y",
            "x^2*y^2+3*x*y+6*x+3*y+1",
        ])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["irreducible"] is True

    def test_guard_exit_5(self, capsys):
        code = main(["factor-oracle", "--vars", "x,y,z", "x*y*z"])
        assert code == EXIT_GUARD


class TestSuggest:
    def test_suggestions_include_slope(self, capsys):
        code = main(["suggest", "--prime", "2", "--vars", "x", "x^2+2"])
        assert code == EXIT_OK
        docs = json.loads(capsys.readouterr().out)
        deltas = {pair["delta"] for doc in docs for pair in doc["pairs"]}
        assert {"0", "1/2"} <= deltas

    def test_requires_prime(self, capsys):
        code = main(["suggest", "--vars", "x", "x^2+2"])
        assert code == EXIT_INPUT_ERROR


class TestArgumentValidation:
    def test_duplicate_vars(self, pairs_file):
        code = main([
            "certify", "--vars", "x,x", "--pairs", pairs_file(GAUSS2),
            "x*x+1",
        ])
        assert code == EXIT_INPUT_ERROR

    def test_arity_mismatch(self, pairs_file):
        code = main([
            "certify", "--vars", "x", "--pairs", pairs_file(GAUSS2), "x",
        ])
        assert code == EXIT_INPUT_ERROR

    def test_malformed_pairs_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main([
            "certify", "--vars", "x", "--pairs", str(path), "x",
        ])
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("argv", [
        "certify --vars x --pairs PAIRS --prime abc x+1",
        "certify --pairs PAIRS x+1",
        "frobnicate --vars x x+1",
        "",
    ], ids=["prime-abc", "missing-vars", "unknown-subcommand",
            "no-subcommand"])
    def test_usage_error_exit_4(self, pairs_file, capsys, argv):
        argv = [pairs_file(EIS2) if a == "PAIRS" else a for a in argv.split()]
        assert main(argv) == EXIT_INPUT_ERROR
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["certify", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out != ""

    @pytest.mark.parametrize("limit", ["0", "-5", "abc"])
    def test_limit_below_one(self, pairs_file, capsys, limit):
        code = main([
            "certify", "--vars", "x,y", "--pairs", pairs_file(GAUSS2),
            "--limit", limit, "x^2*y^2+1",
        ])
        assert code == EXIT_INPUT_ERROR
        assert "--limit must be a positive integer" in capsys.readouterr().err
