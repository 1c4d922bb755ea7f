"""End-to-end command-line tests: every subcommand, every exit code."""

import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcert.cli import (
    EXIT_GUARD,
    EXIT_INPUT_ERROR,
    EXIT_NOT_A_LIFTING,
    EXIT_OK,
    EXIT_RESIDUE_EXCLUDED,
    main,
)
from liftcert import lifting
from liftcert.errors import ResourceLimitExceeded
from liftcert.parse import parse_polynomial
from liftcert.valuation import PairConfig, pair_specs_from_json

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

    def test_deep_nesting_exit_4(self, pairs_file, capsys):
        code = main([
            "certify", "--prime", "3", "--vars", "x,y",
            "--pairs", pairs_file(GAUSS2), "(" * 3000 + "x" + ")" * 3000,
        ])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "nested deeper" in err and "Traceback" not in err

    def test_non_ascii_digit_exit_4(self, pairs_file, capsys):
        # an Arabic-Indic three is a stray character, not the number 3
        code = main([
            "certify", "--vars", "x", "--pairs", pairs_file(EIS2),
            "x^2 + \u0663",
        ])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "unexpected character '\u0663' (at position 6)" in err
        assert "Traceback" not in err

    def test_variable_no_token_can_spell_exit_4(self, pairs_file, capsys):
        # with "3" as the second variable, "3" in the text would read as
        # the number and the variable could not be reached
        code = main([
            "certify", "--vars", "x,3", "--pairs", pairs_file(GAUSS2),
            "x^2*3^2 + x + 1",
        ])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "variable name '3' is not of the form" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("expr", [
        "2^1000000000000", "x^1000000000000 + 1", "(x+y+1)^100000",
    ])
    def test_oversized_input_exit_5(self, pairs_file, capsys, expr):
        start = time.perf_counter()
        code = main([
            "certify", "--vars", "x,y", "--pairs", pairs_file(GAUSS2), expr,
        ])
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        err = capsys.readouterr().err
        assert "resource guard" in err and "Traceback" not in err

    def test_high_degree_shift_is_linear_in_binomials(self, pairs_file,
                                                      capsys):
        # the Taylor shift of x^8000 + 3 to the centre 1 takes each
        # binomial from the one before; its residue Z^8000 + 1 then
        # trips the univariate guard, named for Rabin's work
        pairs = pairs_file({"prime": 3, "pairs": [
            {"kind": "rational_center", "center": "1", "delta": "0"}]})
        start = time.perf_counter()
        code = main(["certify", "--vars", "x", "--pairs", pairs, "x^8000+3"])
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        assert "Rabin work limit exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "expand"])
    def test_taylor_shift_guard_exit_5(self, pairs_file, capsys, command):
        # the shift of x^40000 + 3 to the centre 1 would take seconds
        # and hundreds of MB; its work is counted first
        pairs = pairs_file({"prime": 3, "pairs": [
            {"kind": "rational_center", "center": "1", "delta": "0"}]})
        start = time.perf_counter()
        code = main([command, "--vars", "x", "--pairs", pairs, "x^40000+3"])
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        captured = capsys.readouterr()
        assert "Taylor shift work limit exceeded" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("prime,expr", [
        ("3", "x^6*y^6 + 1"),
        ("1000000007", "x^2*y^2 + x^2*y + x*y^2 + 4*x*y + 2*x + y + 2"),
    ], ids=["cube-p3", "gauss-p1000000007"])
    def test_residue_above_the_guard_decided_exit_3(
            self, pairs_file, capsys, prime, expr):
        # the ceiling probes: T = (Z1^2 Z2^2 + 1)^3 is a cube, and T =
        # (Z1 Z2 + Z1 + 1)(Z1 Z2 + Z2 + 2) is factored by lifting
        pairs = pairs_file({"prime": int(prime), "pairs": GAUSS2["pairs"]})
        code = main(["certify", "--vars", "x,y", "--pairs", pairs, expr])
        assert code == EXIT_RESIDUE_EXCLUDED
        assert "verdict: ResidueReducible" in capsys.readouterr().out

    @pytest.mark.parametrize("prime", [10007, 1000000007])
    @pytest.mark.parametrize("nvars,expr,expected", [
        (2, "(x^2+1)*y + {p}", EXIT_OK),  # T = Z1*Z2 + 1
        (2, "(x^2+1)^2*y^2 + {p}^2", EXIT_RESIDUE_EXCLUDED),  # Z1^2*Z2^2 + 1
        (3, "(x^2+1)*y*z + {p}", EXIT_OK),  # Z1*Z2*Z3 + 1
    ], ids=["irreducible", "reducible", "three-variables"])
    def test_inert_residue_field_above_the_guard(
            self, pairs_file, capsys, prime, nvars, expr, expected):
        # x^2 + 1 is inert at both primes, so the residue field F_(p^2)
        # has about 10^8 or 10^18 elements; its points are drawn lazily
        # and never listed, and Kronecker's substitution decides the
        # three-variable T from one image of degree 7, so each answer
        # comes at once
        pairs = pairs_file({"prime": prime, "pairs": [
            {"kind": "inert", "phi": [1, 0, 1], "delta": "1"}] + [
            {"kind": "rational_center", "center": "0", "delta": "0"}]
            * (nvars - 1)})
        start = time.perf_counter()
        code = main(["certify", "--vars", ",".join("xyz"[:nvars]),
                     "--pairs", pairs, expr.format(p=prime)])
        assert time.perf_counter() - start < 1
        assert code == expected
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("expr", [
        "x^2 + 3^10000", "(3^5000*x + 1)^2", "9" * 100 + "^100000*x",
    ])
    def test_oversized_coefficient_exit_5(
            self, pairs_file, capsys, expr, as_json):
        # a coefficient past Python's int-to-string digit limit, or one
        # that takes seconds to build, is refused while parsing
        start = time.perf_counter()
        code = main([
            "certify", "--vars", "x,y", "--pairs", pairs_file(GAUSS2), expr,
        ] + ["--json"] * as_json)
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        err = capsys.readouterr().err
        assert "coefficient bits limit exceeded" in err

    @pytest.mark.parametrize("expr,expected", [
        ("x^30+x+2", EXIT_OK),
        ("x^26+2*x+1", EXIT_RESIDUE_EXCLUDED),  # 2 is a root mod 3
        ("x^1000+3", EXIT_GUARD),
    ])
    def test_univariate_residue_decided_by_rabin(
            self, pairs_file, capsys, expr, expected):
        # Ben-Or's test decides these, beyond the divisor-candidate count
        # from degree 26 at p = 3
        gauss1 = {"prime": 3, "pairs": GAUSS2["pairs"][:1]}
        code = main([
            "certify", "--vars", "x", "--pairs", pairs_file(gauss1), expr,
        ])
        assert code == expected
        err = capsys.readouterr().err
        assert ("univariate Rabin work limit exceeded" in err) == (
            expected == EXIT_GUARD)

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

    @pytest.mark.parametrize("as_json", [False, True])
    def test_oversized_coefficient_exit_5(self, pairs_file, capsys, as_json):
        # recentring at 1/1000 gives digits with denominators 1000^k,
        # past Python's int-to-string digit limit from k = 1,405
        pairs = pairs_file({"prime": 3, "pairs": [
            {"kind": "rational_center", "center": "1/1000", "delta": "0"}]})
        start = time.perf_counter()
        code = main(["expand", "--vars", "x", "--pairs", pairs, "x^1500"]
                    + ["--json"] * as_json)
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coefficient bits limit exceeded" in captured.err
        assert "Traceback" not in captured.err

    def test_inert_division_guard_exit_5(self, pairs_file, capsys):
        # dividing x^4000 + 3 by x^2 + 1 takes 4,000,000 row operations,
        # quadratic in the degree; the guard refuses it before it starts
        pairs = pairs_file({"prime": 3, "pairs": [
            {"kind": "inert", "phi": [1, 0, 1], "delta": "1"}]})
        start = time.perf_counter()
        code = main(["expand", "--vars", "x", "--pairs", pairs, "x^4000+3"])
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "phi-adic division work limit exceeded" in captured.err
        assert "Traceback" not in captured.err


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

    def test_zero_is_infinite(self, pairs_file, capsys):
        # f = 0 is the only input whose w is +infinity
        argv = ["value", "--vars", "x,y", "--pairs", pairs_file(GAUSS2), "0"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "w(f) = inf" in out
        assert "w_x(f) = inf" in out
        assert main(["value", "--json"] + argv[1:]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"w": "inf", "marginals": ["inf", "inf"],
                       "contributing": []}

    def test_inert_division_counts_every_list_exit_5(self, pairs_file,
                                                     capsys):
        # four coefficient lists in y of 2,001 entries each, at
        # 1,000,000 row operations apiece
        pairs = pairs_file({"prime": 3, "pairs": [
            {"kind": "rational_center", "center": "0", "delta": "0"},
            {"kind": "inert", "phi": [1, 0, 1], "delta": "1"}]})
        start = time.perf_counter()
        code = main(["value", "--vars", "x,y", "--pairs", pairs,
                     "y^2000 + x*y^2000 + x^2*y^2000 + x^3*y^2000 + 3"])
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        err = capsys.readouterr().err
        assert "phi-adic division work limit exceeded: need 4000000" in err


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

    def test_json_uses_the_certificate_writer(self, pairs_file, capsys):
        # the T member of a certificate and residue --json come from one
        # writer, and print as json.dumps(indent=2) would
        expr = "x^4*y^6 + 2*x^2*y^6 + y^6 + 9*x*y^3 + 54*x + 27"
        code = main(["residue", "--json", "--vars", "x,y", "--pairs",
                     pairs_file(INERT9), expr])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert doc["text"] == "Z1*Z2^2 + y1*Z2 + (2*y1 + 1)"
        assert doc["coeffs"][2] == {"exp": [0, 0], "c": "2*y1 + 1"}
        main(["certify", "--json", "--vars", "x,y", "--pairs",
              pairs_file(INERT9), expr])
        assert json.loads(capsys.readouterr().out)["T"] == doc
        config = PairConfig(*pair_specs_from_json(INERT9))
        report = lifting.check_lifting(parse_polynomial(expr, ["x", "y"]),
                                       config)
        assert out == lifting.residue_json(report.residue) + "\n"

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

    def test_noise_placed_far_above_the_target(self, pairs_file, tmp_path,
                                               capsys):
        # at the centre 3^-10 the noise's own w is far below 0, and the
        # first level at which seed 1 places it is past 60 single steps
        pairs = pairs_file({"prime": 3, "pairs": [
            {"kind": "rational_center", "center": "1/59049", "delta": "0"}]})
        tfile = tmp_path / "T.json"
        tfile.write_text(json.dumps({"p": 3, "coeffs": [
            {"exp": [10], "c": "1"}, {"exp": [0], "c": "1"}]}))
        code = main(["generate", "--vars", "x", "--pairs", pairs, str(tfile),
                     "--seed", "1"])
        assert code == EXIT_OK
        generated = capsys.readouterr().out.strip()
        code = main(["certify", "--json", "--vars", "x", "--pairs", pairs,
                     generated])
        assert code == EXIT_RESIDUE_EXCLUDED  # Z^10 + 1 factors mod 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["T"]["text"] == "Z1^10 + 1"

    def test_oversized_coefficient_exit_5(self, pairs_file, tmp_path,
                                          capsys):
        # the lifting of Z^40 at the centre 2^-400 has a coefficient with
        # denominator 2^16000, past Python's int-to-string digit limit
        pairs = pairs_file({"prime": 3, "pairs": [
            {"kind": "rational_center", "center": f"1/{2 ** 400}",
             "delta": "0"}]})
        tfile = tmp_path / "T.json"
        tfile.write_text(json.dumps({
            "p": 3, "coeffs": [{"exp": [40], "c": "1"}],
        }))
        start = time.perf_counter()
        code = main(["generate", "--vars", "x", "--pairs", pairs, str(tfile)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coefficient bits limit exceeded" in captured.err
        assert "Traceback" not in captured.err

    def test_lifting_guard_before_phi_powers_exit_5(
            self, pairs_file, tmp_path, capsys):
        # (x - 1/1000)^1500 has the constant term 1000^-1500, of 14,949
        # bits: refused before the power is formed
        pairs = pairs_file({"prime": 3, "pairs": [
            {"kind": "rational_center", "center": "1/1000", "delta": "0"}]})
        tfile = tmp_path / "T.json"
        tfile.write_text(json.dumps({
            "p": 3, "coeffs": [{"exp": [1500], "c": "1"}],
        }))
        start = time.perf_counter()
        code = main(["generate", "--vars", "x", "--pairs", pairs, str(tfile)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("estimated lifting coefficient bits limit exceeded: "
                "need 14949") in captured.err
        assert "Traceback" not in captured.err

    def test_division_guard_exit_5(self, pairs_file, tmp_path, capsys):
        # the lifting of Z^501 + 1 under x^2 + 1 has degree 2004 in x:
        # undoing its division needs the 1,004,004 row operations that
        # expanding any polynomial of that degree needs, above the
        # default limit of 10^6
        pair_doc = {"prime": 3, "pairs": [
            {"kind": "inert", "phi": [1, 0, 1], "delta": "1/2"}]}
        specs, p = pair_specs_from_json(pair_doc)
        with pytest.raises(ResourceLimitExceeded) as expanded:
            PairConfig(specs, p).expansion_table(parse_polynomial("x^2004",
                                                                  ["x"]))
        tfile = tmp_path / "T.json"
        tfile.write_text(json.dumps({"p": 3, "coeffs": [
            {"exp": [501], "c": "1"}, {"exp": [0], "c": "1"}]}))
        start = time.perf_counter()
        code = main(["generate", "--vars", "x", "--pairs",
                     pairs_file(pair_doc), str(tfile)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"phi-adic division work limit exceeded: need "
                f"{expanded.value.needed}") in captured.err
        assert "Traceback" not in captured.err

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


    @pytest.mark.parametrize("doc,named", [
        ({"p": 3}, 'missing field "coeffs"'),
        ([1, 2], "must be a JSON object"),
        ({"p": 3, "coeffs": [{"exp": [1.9, 1], "c": "1"}]}, "exponent"),
        ({"p": 3, "coeffs": [{"exp": [True, 1], "c": "1"}]}, "exponent"),
        ({"p": 3, "coeffs": [{"exp": [1, 1], "c": "1"},
                             {"exp": [-1, 0], "c": "1"}]}, "exponent"),
        # a string would be read as the exponents [1, 1]
        ({"p": 3, "coeffs": [{"exp": "11", "c": "1"}]}, "exponent list"),
    ], ids=["no-coeffs", "list", "float-exponent", "bool-exponent",
            "negative-exponent", "string-exponent-list"])
    def test_malformed_residue_document_exit_4(self, pairs_file, tmp_path,
                                               capsys, doc, named):
        tfile = tmp_path / "T.json"
        tfile.write_text(json.dumps(doc))
        code = main([
            "generate", "--vars", "x,y", "--pairs", pairs_file(GAUSS2),
            str(tfile),
        ])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "malformed residue document" in err and named in err
        assert "Traceback" not in err


class TestFileContents:
    """A pair file and a residue file are read the same way: a file that
    is not JSON, or holds a number the program cannot take in, exits 4
    or 5 at once, with no traceback."""

    GAUSS1 = {"prime": 3, "pairs": [
        {"kind": "rational_center", "center": "0", "delta": "0"}]}

    def run(self, pairs_file, tmp_path, kind, content):
        path = tmp_path / "input.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        if kind == "pairs":
            argv = ["certify", "--vars", "x", "--pairs", str(path), "x+1"]
        else:
            argv = ["generate", "--vars", "x", "--pairs",
                    pairs_file(self.GAUSS1), str(path)]
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1
        return code

    @pytest.mark.parametrize("kind", ["pairs", "residue"])
    @pytest.mark.parametrize("content", [
        b"\xff\xfe", "[" * 100_000, '{"p": ' + "1" * 5000 + "}",
    ], ids=["not-utf-8", "deep-nesting", "5000-digit-literal"])
    def test_unreadable_json_exit_4(self, pairs_file, tmp_path, capsys,
                                    kind, content):
        code = self.run(pairs_file, tmp_path, kind, content)
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        document = "pair-spec" if kind == "pairs" else "residue"
        assert f"error: malformed {document} document: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, doc, message", [
        ("pairs", {"prime": 3, "pairs": [None]},
         "pairs[0] must be a JSON object, got null"),
        ("pairs", {"prime": 3, "pairs": 5},
         "pairs must be a JSON list, got 5"),
        ("pairs", [GAUSS1],
         "the document must be a JSON object, got [{"),
        ("pairs", {"prime": 3, "pairs": [{"kind": "inert", "delta": "1"}]},
         'missing field "phi" in pairs[0]'),
        ("pairs", {"pairs": []}, 'missing field "prime" in the document'),
        ("residue", [1], "the document must be a JSON object, got [1]"),
        ("residue", {"p": 3, "coeffs": 5},
         "coeffs must be a JSON list, got 5"),
        ("residue", {"p": 3, "coeffs": [None]},
         "coeffs[0] must be a JSON object, got null"),
        ("residue", {"p": 3, "coeffs": [{"exp": [1]}]},
         'missing field "c" in coeffs[0]'),
        ("residue", {"p": 3}, 'missing field "coeffs" in the document'),
    ], ids=["null-pair", "int-pairs", "list-document", "no-phi", "no-prime",
            "list-residue", "int-coeffs", "null-coeff", "no-c", "no-coeffs"])
    def test_bad_field_named_exit_4(self, pairs_file, tmp_path, capsys,
                                    kind, doc, message):
        # the message names the field, not Python's exception text
        code = self.run(pairs_file, tmp_path, kind, json.dumps(doc))
        assert code == EXIT_INPUT_ERROR
        document = "pair-spec" if kind == "pairs" else "residue"
        assert (f"error: malformed {document} document: {message}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("center", ["1e9999999", "1e999999", "0.5",
                                        " 1/2", "1_000", "1/-2", "\u0663"])
    def test_number_outside_the_grammar_exit_4(
            self, pairs_file, tmp_path, capsys, center):
        # Fraction() would read these; "1e9999999" took seconds to build
        # and "1e999999" certified, then could not print its header; the
        # digits are ASCII, so an Arabic-Indic three is no number
        doc = {"prime": 3, "pairs": [
            {"kind": "rational_center", "center": center, "delta": "0"}]}
        code = self.run(pairs_file, tmp_path, "pairs", json.dumps(doc))
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert 'center must be a JSON integer or a string "a" or "a/b"' in err

    @pytest.mark.parametrize("pair", [
        {"kind": "rational_center", "center": "1" * 5000, "delta": "0"},
        {"kind": "rational_center", "center": "0", "delta": "1/" + "7" * 4300},
        {"kind": "rational_center", "center": "-" + "0" * 9000 + "3" * 4216,
         "delta": "0"},
        {"kind": "rational_center", "center": 3 ** 8900, "delta": "0"},
        {"kind": "inert", "phi": [1, "9" * 5000, 1], "delta": "1"},
    ], ids=["5000-digit-center", "4300-digit-denominator",
            "4216-digits-after-zeros", "json-integer", "phi-entry"])
    def test_oversized_number_exit_5(self, pairs_file, tmp_path, capsys,
                                     pair):
        doc = {"prime": 3, "pairs": [pair]}
        code = self.run(pairs_file, tmp_path, "pairs", json.dumps(doc))
        assert code == EXIT_GUARD
        err = capsys.readouterr().err
        assert "coefficient bits limit exceeded" in err
        assert "Traceback" not in err

    def test_widest_number_is_read(self, pairs_file, tmp_path, capsys):
        # 2^14000 - 1, the largest value of MAX_COEFF_BITS bits, after
        # leading zeros, which do not count (x + 1 is linear, so it
        # certifies at any centre)
        doc = {"prime": 3, "pairs": [{"kind": "rational_center",
               "center": "-000" + str(2 ** 14000 - 1), "delta": "0"}]}
        code = self.run(pairs_file, tmp_path, "pairs", json.dumps(doc))
        assert code == EXIT_OK

    def test_oversized_h_exit_5_before_printing(self, pairs_file, capsys):
        # h = 3^10000 has 4,772 digits and only the JSON certificate
        # prints it: the text run is a plain NotALifting, and the JSON
        # run refuses h before it prints anything
        doc = {"prime": 3, "pairs": [
            {"kind": "rational_center", "center": "0", "delta": "10000"}]}
        argv = ["certify", "--vars", "x", "--pairs", pairs_file(doc), "x+1"]
        assert main(argv) == EXIT_NOT_A_LIFTING
        assert "verdict: NotALifting" in capsys.readouterr().out
        assert main(argv[:1] + ["--json"] + argv[1:]) == EXIT_GUARD
        out, err = capsys.readouterr()
        assert out == ""
        assert "coefficient bits limit exceeded" in err
        assert "Traceback" not in err

    def test_oversized_residue_exponent_exit_5(self, pairs_file, tmp_path,
                                               capsys):
        # an exponent of 10^400 overflowed the float estimate of the
        # lifting's coefficient bits
        content = '{"p": 3, "coeffs": [{"exp": [1%s], "c": "1"}]}' % (
            "0" * 400)
        code = self.run(pairs_file, tmp_path, "residue", content)
        assert code == EXIT_GUARD
        err = capsys.readouterr().err
        assert "degree limit exceeded" in err and "Traceback" not in err


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

    def test_divisor_trials_guarded(self, capsys):
        # the rational-root pass would trial-divide 3^40 up to 3^20
        start = time.perf_counter()
        code = main(["factor-oracle", "--vars", "x", "x^2 + 3^40"])
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD
        assert "divisor trials limit exceeded" in capsys.readouterr().err

    def test_zero_exit_4(self, capsys):
        code = main(["factor-oracle", "--vars", "x", "0"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "f must be nonzero" in err and "Traceback" not in err

    def test_leading_minus_needs_dashes(self, capsys):
        # argparse reads "-x^2+1" as an option unless "--" precedes it
        assert main(["factor-oracle", "--vars", "x", "-x^2+1"]) == (
            EXIT_INPUT_ERROR)
        assert "usage:" in capsys.readouterr().err
        assert main(["factor-oracle", "--vars", "x", "--", "-x^2+1"]) == (
            EXIT_OK)
        assert capsys.readouterr().out == "-1 * (x - 1) * (x + 1)\n"

    def test_reducible_bivariate_beyond_the_image(self, capsys):
        # Kronecker's image y -> x^6 of this product needs 2,568,481
        # divisor trials; the lift modulo p^k factors it
        code = main([
            "factor-oracle", "--vars", "x,y", "--",
            "-42*x^5*y^3 - 78*x^3*y^4 + 14*x^5 + 26*x^3*y - 42*x^2*y^2"
            " + 147*x^3 - 78*y^3 + 273*x*y",
        ])
        assert code == EXIT_OK
        assert "(7*x^2 + 13*y)" in capsys.readouterr().out


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

    def test_malformed_pairs_json(self, pairs_file, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main([
            "certify", "--vars", "x", "--pairs", str(path), "x",
        ])
        assert code == EXIT_INPUT_ERROR
        # a float or bool would be truncated into a different pair
        for pair, named in [
            ({"kind": "inert", "phi": [1, 0.5, 1], "delta": "1"}, "phi"),
            ({"kind": "inert", "phi": [1, False, 1], "delta": "1"}, "phi"),
            ({"kind": "rational_center", "center": 0.1, "delta": "0"},
             "center"),
            ({"kind": "rational_center", "center": "0", "delta": True},
             "delta"),
            ({"kind": "rational_center", "center": "0", "delta": 0.5},
             "delta"),
        ]:
            path = pairs_file({"prime": 3, "pairs": [pair]})
            code = main(["certify", "--vars", "x", "--pairs", path, "x^2+4"])
            assert code == EXIT_INPUT_ERROR, pair
            err = capsys.readouterr().err
            assert "malformed pair-spec document: " + named in err
        # a zero denominator is malformed too, not a ZeroDivisionError
        for pair in [
            {"kind": "rational_center", "center": "1/0", "delta": "0"},
            {"kind": "rational_center", "center": "0", "delta": "1/0"},
        ]:
            path = pairs_file({"prime": 3, "pairs": [pair]})
            code = main(["certify", "--vars", "x", "--pairs", path, "x^2+4"])
            assert code == EXIT_INPUT_ERROR, pair
            assert "malformed pair-spec document" in capsys.readouterr().err

    def test_string_phi_exit_4(self, pairs_file, capsys):
        # "101" would be read as phi = x^2 + 1, which certifies x^2 + 4
        path = pairs_file({"prime": 3, "pairs": [
            {"kind": "inert", "phi": "101", "delta": "1"}]})
        code = main(["certify", "--vars", "x", "--pairs", path, "x^2+4"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "malformed pair-spec document: phi must be a JSON list" in err

    @pytest.mark.parametrize("argv", [
        "certify --vars x --pairs PAIRS --prime abc x+1",
        "certify --pairs PAIRS x+1",
        "frobnicate --vars x x+1",
        "",
        "generate --json --vars x --pairs PAIRS T.json",
        "factor-oracle --prime 2 --vars x x+1",
        "suggest --limit 10 --prime 2 --vars x x+1",
        "suggest --json --prime 2 --vars x x+1",
    ], ids=["prime-abc", "missing-vars", "unknown-subcommand",
            "no-subcommand", "generate-json", "factor-oracle-prime",
            "suggest-limit", "suggest-json"])
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


# ---------------------------------------------------------------------
# fuzzing: whatever the input, main returns a documented exit code


_numbers = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "2/3", "-1/3", 0, 1, 2, 3]),
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.text(alphabet="0123456789/-+. e", max_size=6),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_centres = st.fixed_dictionaries({
    "kind": st.just("rational_center"),
    "center": st.sampled_from(["0", "1", "-1/2"]),
    "delta": st.sampled_from(["0", "1/2", "1/3", "2"]),
})
_INERT_PHI = {2: [1, 1, 1], 3: [1, 0, 1], 5: [2, 0, 1]}  # irreducible
_pieces = st.sampled_from([
    "x", "y", "2", "3", "1/2", "x^2", "y^3", "x^2*y^2", "x^9", "y^40",
    "(x+1)", "(x*y-1)", "(y-x^2)", "0", "z", "(", "^",
])
_expressions = st.one_of(
    st.builds("".join, st.lists(
        st.tuples(st.sampled_from(["+", "-", "*", ""]), _pieces)
        .map("".join), max_size=4)).flatmap(
            lambda tail: _pieces.map(lambda head: head + tail)),
    st.text(alphabet="xy0123456789+-*/^(). ", max_size=12),
    st.text(max_size=6),
)


@st.composite
def _documents(draw, nvars):
    """A pair file and a residue file for nvars variables, well formed
    except for at most one field, which may hold any JSON value."""
    prime = draw(st.sampled_from([2, 3, 5]))
    pairs = [draw(_centres) for _ in range(nvars)]
    if draw(st.booleans()):
        pairs[-1] = {"kind": "inert", "phi": _INERT_PHI[prime],
                     "delta": draw(st.sampled_from(["1/2", "1"]))}
    pair_doc = {"prime": prime, "pairs": pairs}
    residue_doc = {"p": prime, "coeffs": draw(st.lists(
        st.fixed_dictionaries({
            "exp": st.lists(st.integers(0, 3), min_size=nvars,
                            max_size=nvars),
            "c": st.sampled_from(["1", "2", "y1", "y1 + 1", "-1"]),
        }), min_size=1, max_size=3))}
    spoilt = draw(st.sampled_from([
        None, pair_doc, pair_doc["pairs"][0], residue_doc,
        residue_doc["coeffs"][0]]))
    if spoilt is not None:
        key = draw(st.sampled_from(sorted(spoilt)))
        spoilt[key] = draw(_numbers | _json_values)
    if draw(st.integers(0, 9)) == 0:
        pair_doc = draw(_json_values)
    if draw(st.integers(0, 9)) == 0:
        residue_doc = draw(_json_values)
    return pair_doc, residue_doc


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(
        ["factor-oracle", "certify", "expand", "generate"]))
    nvars = draw(st.integers(1, 2))
    names = ["x", "x,y"][nvars - 1]
    if draw(st.integers(0, 9)) == 0:
        names = draw(st.sampled_from(["", "x,x", "x,y,z"]))
    pair_doc, residue_doc = draw(_documents(nvars))
    dashes = draw(st.booleans())
    return command, names, draw(_expressions), dashes, pair_doc, residue_doc


@given(_invocations())
@settings(max_examples=100, deadline=None)
def test_fuzz_exit_codes(invocation):
    command, names, expr, dashes, pair_doc, residue_doc = invocation
    with tempfile.TemporaryDirectory() as tmp:
        pairs = os.path.join(tmp, "pairs.json")
        residue = os.path.join(tmp, "residue.json")
        with open(pairs, "w", encoding="utf-8") as fh:
            json.dump(pair_doc, fh)
        with open(residue, "w", encoding="utf-8") as fh:
            json.dump(residue_doc, fh)
        argv = [command, "--vars", names, "--limit", "10000"]
        if command != "factor-oracle":
            argv += ["--pairs", pairs]
        argv += ["--"] if dashes else []
        argv += [residue if command == "generate" else expr]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in {EXIT_OK, EXIT_NOT_A_LIFTING, EXIT_RESIDUE_EXCLUDED,
                    EXIT_INPUT_ERROR, EXIT_GUARD}
