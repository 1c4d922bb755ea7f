"""Lifting verification, certificates, generation, and suggestions."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from liftcert import (
    Inert,
    MultiPoly,
    PairConfig,
    RationalCenter,
    ResidueField,
    ResiduePoly,
    brute_factor,
    certify_irreducible,
    check_lifting,
    generate_lifting,
    suggest_pairs,
)
from liftcert import exactnum, lifting
from liftcert.errors import ConfigError, ResourceLimitExceeded
from liftcert.finitefield import ResidueElement, is_irreducible_multivariate
from liftcert.multipoly import grlex_key
from liftcert.lifting import (
    VERDICT_CERTIFIED,
    VERDICT_NOT_A_LIFTING,
    VERDICT_RESIDUE_IS_VARIABLE,
    VERDICT_RESIDUE_REDUCIBLE,
    GenerationError,
    residue_from_json,
    residue_to_json,
)

from conftest import (
    SPLIT_CONFIGS,
    P,
    gauss_config,
    liftable_residue,
    rc_config,
)


def eisenstein_config(p, deg):
    return rc_config(p, [Fraction(1, deg)])


class TestCheckLifting:
    def test_worked_example_is_lifting(self):
        config = gauss_config(3, 2)
        report = check_lifting(P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1"), config)
        assert report.ok
        assert report.t == (2, 2)
        assert report.residue.to_str() == "Z1^2*Z2^2 + 1"
        assert all(c.passed for c in report.checks)

    def test_degree_failure_reports_quantities(self):
        config = eisenstein_config(2, 2)
        report = check_lifting(P("2*x", ("x",)), config)
        assert not report.ok
        assert report.condition == "i"
        assert report.failed.name == "degree_in_x1"
        assert report.failed.lhs == "1"
        assert "2" in report.failed.rhs

    def test_not_monic(self):
        config = gauss_config(3, 2)
        report = check_lifting(P("2*x^2*y^2 + 1"), config)
        assert not report.ok
        assert report.failed.name == "monic_leading_coefficient"

    def test_total_degree_failure(self):
        # per-variable degrees are fine (1 and 1) but total degree is 1
        config = gauss_config(3, 2)
        report = check_lifting(P("x + y"), config)
        assert not report.ok
        assert report.condition == "i"
        assert report.failed.name == "total_degree"
        assert (report.failed.lhs, report.failed.rhs) == ("1", "2")

    def test_w_failure(self):
        # x^2 + 2x + 2 at delta = 1/2, p = 2: the 2x digit has value
        # 1 + 1/2 but the x^2 digit value 1 and constant 1 keep w = 1;
        # x^2 + x has w = 1/2 != 1
        config = eisenstein_config(2, 2)
        report = check_lifting(P("x^2 + x", ("x",)), config)
        assert not report.ok
        assert report.condition == "ii"
        assert report.failed.name == "w_total"
        assert report.failed.lhs == "1/2"
        assert report.failed.rhs == "1"

    def test_index_not_divisible_by_shared_e(self):
        # both deltas are 1/2, so e = 2 twice: the digit 2 at index (1, 1)
        # has value 1 + 1/2 + 1/2 = w, but 1 is not a multiple of e
        config = rc_config(2, [Fraction(1, 2), Fraction(1, 2)])
        f = P("x^2*y^2 + 2*x*y + 4")
        report = check_lifting(f, config)
        assert not report.ok
        assert report.condition == "iii"
        assert report.failed.name == "contributing_index_x1"
        assert report.failed.lhs == "1 in (1, 1)"
        assert report.failed.rhs == "a multiple of e_1 = 2"
        assert report.failed is report.checks[-1]
        assert report.t == (1, 1) and report.residue is None
        cert = certify_irreducible(f, config)
        assert cert.verdict == VERDICT_NOT_A_LIFTING
        assert cert.reason.startswith(
            "condition (iii) failed: contributing_index_x1: 1 in (1, 1)")

    def test_residue_monic_follows_from_monic_input(self, rng):
        # for a monic f with the right degrees, the top expansion index
        # e*t always carries the digit 1 and always contributes, so the
        # residue_monic check passes whenever the earlier checks do; the
        # row is still recorded and compared
        config = PairConfig([Inert((1, 0, 1), Fraction(1, 2))], 3)
        report = check_lifting(P("x^4 + 2*x^2 + 4", ("x",)), config)
        assert report.ok
        assert report.residue.to_str() == "Z1 + 1"
        monic_checks = [c for c in report.checks if c.name == "residue_monic"]
        assert monic_checks and monic_checks[0].passed

    def test_zero_rejected(self):
        config = gauss_config(3, 1)
        from liftcert import MultiPoly

        with pytest.raises(ConfigError):
            check_lifting(MultiPoly.zero(1), config)

    def test_prime_checked_once_per_configuration(self, monkeypatch):
        # PairConfig checks p; the valuations behind the checks and the
        # residue decision take it as given
        config = gauss_config(3, 2)
        calls = []

        def counting(n):
            calls.append(n)
            return True

        monkeypatch.setattr(exactnum, "is_prime", counting)
        f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
        assert check_lifting(f, config).ok
        assert certify_irreducible(f, config).certified
        assert calls == []


def _mutants(f, rng):
    """f, f + 1, f with its leading coefficient doubled, and f without
    one of its terms (when it has another)."""
    n = f.nvars
    lead = max(f.terms, key=grlex_key)
    drop = rng.choice(sorted(f.terms))
    yield f
    yield f + MultiPoly.constant(n, 1)
    yield f + MultiPoly(n, {lead: f.terms[lead]})
    if len(f.terms) > 1:
        yield MultiPoly(n, {e: c for e, c in f.terms.items() if e != drop})


class TestReportContract:
    # a failed report ends at the row that failed it; it carries t once
    # condition (i) has held and the residue only when every check
    # passed; certify turns exactly the failed reports into NotALifting
    # with the report's reason
    @pytest.mark.parametrize("config", [c[1] for c in SPLIT_CONFIGS],
                             ids=[c[0] for c in SPLIT_CONFIGS])
    def test_seeded_liftings_and_mutants(self, config, rng):
        seen = set()
        for seed in range(12):
            T, _ = liftable_residue(rng, config)
            for g in _mutants(generate_lifting(T, config, seed), rng):
                report = check_lifting(g, config)
                seen.add(report.condition)
                if not report.ok:
                    assert report.failed is report.checks[-1]
                    assert not report.failed.passed
                    assert all(c.passed for c in report.checks[:-1])
                assert (report.t is None) == (report.condition == "i")
                assert (report.residue is None) == (not report.ok)
                cert = certify_irreducible(g, config)
                assert (cert.verdict == VERDICT_NOT_A_LIFTING) == (
                    not report.ok)
                if not report.ok:
                    assert cert.reason == report.reason
        assert {None, "i"} <= seen


class TestCertify:
    def test_certified(self):
        config = gauss_config(3, 2)
        cert = certify_irreducible(P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1"), config)
        assert cert.verdict == VERDICT_CERTIFIED
        assert cert.certified
        assert cert.t == (2, 2)

    def test_residue_reducible(self):
        config = gauss_config(3, 2)
        cert = certify_irreducible(P("x^2*y^2 - 1"), config)
        assert cert.verdict == VERDICT_RESIDUE_REDUCIBLE
        assert not cert.certified

    def test_residue_is_variable(self):
        config = eisenstein_config(2, 2)
        cert = certify_irreducible(P("x^2 + 2*x + 4", ("x",)), config)
        assert cert.verdict == VERDICT_RESIDUE_IS_VARIABLE

    def test_not_a_lifting_reason(self):
        config = eisenstein_config(2, 2)
        cert = certify_irreducible(P("2*x", ("x",)), config)
        assert cert.verdict == VERDICT_NOT_A_LIFTING
        assert "condition (i)" in cert.reason
        assert "1" in cert.reason and "2" in cert.reason

    def test_eisenstein_classic(self):
        # x^2 + 2 is 2-Eisenstein: certified with T = Z + 1
        config = eisenstein_config(2, 2)
        cert = certify_irreducible(P("x^2 + 2", ("x",)), config)
        assert cert.certified
        assert cert.residue.to_str() == "Z1 + 1"

    def test_field_too_large_to_tabulate(self):
        # q = 1031: Ben-Or's test over a prime field works on residues
        # mod q and builds no tables; 1031 = 3 mod 4, so -1 is not a
        # square and x^2 + 1 has no root
        config = gauss_config(1031, 1)
        cert = certify_irreducible(P("x^2 + 1", ("x",)), config)
        assert cert.verdict == VERDICT_CERTIFIED
        cert = certify_irreducible(P("x^2 - 1", ("x",)), config)
        assert cert.verdict == VERDICT_RESIDUE_REDUCIBLE

    def test_certificate_json_is_deterministic(self):
        config = gauss_config(3, 2)
        f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
        a = certify_irreducible(f, config, names=["x", "y"]).to_json()
        b = certify_irreducible(f, config, names=["x", "y"]).to_json()
        assert a == b
        doc = json.loads(a)
        assert list(doc) == [
            "input", "prime", "pairs", "variables", "t", "T",
            "checks", "verdict", "version",
        ]
        assert doc["verdict"] == "Certified"
        assert doc["input"] == "x^2*y^2 + 3*x*y + 6*x + 3*y + 1"

    def test_certify_renders_nothing(self, monkeypatch):
        # the certificate is printed by to_json, not while deciding
        config = gauss_config(3, 2)
        f, g = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1"), P("x + y")

        def refuse(*args):
            raise AssertionError("printed while certifying")

        monkeypatch.setattr(MultiPoly, "to_str", refuse)
        monkeypatch.setattr(lifting, "residue_to_json", refuse)
        monkeypatch.setattr(lifting, "pair_specs_to_json", refuse)
        cert = certify_irreducible(f, config, names=["x", "y"])
        assert cert.certified
        assert certify_irreducible(g, config).verdict == VERDICT_NOT_A_LIFTING
        monkeypatch.undo()
        assert json.loads(cert.to_json())["input"] == (
            "x^2*y^2 + 3*x*y + 6*x + 3*y + 1")

    def test_residue_coefficients_printed_once(self, monkeypatch):
        # a new residue's record prints each coefficient of T once, and
        # its rows and T block reuse those texts; check_lifting's
        # residue_monic row prints a leading coefficient only when it is
        # not 1, so a residue seen before costs no printing at all
        calls = []
        to_str = ResidueElement.to_str

        def counted(self):
            calls.append(self)
            return to_str(self)

        monkeypatch.setattr(ResidueElement, "to_str", counted)
        lifting._residue_record.cache_clear()
        f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
        cert = certify_irreducible(f, gauss_config(3, 2))
        doc = cert.to_json_dict()
        assert len(calls) == len(cert.residue.terms)
        calls.clear()
        certify_irreducible(f, gauss_config(3, 2)).to_json()
        assert calls == []
        monkeypatch.undo()
        assert doc["T"] == residue_to_json(cert.residue)

    def test_check_rows_are_frozen(self):
        # every certificate of one residue shares its record's rows
        cert = certify_irreducible(P("x^2*y^2 + 1"), gauss_config(3, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.checks[-1].passed = False

    def test_limit_comes_from_config(self):
        f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
        specs = [RationalCenter(Fraction(0), Fraction(0))] * 2
        assert certify_irreducible(f, PairConfig(specs, 3)).certified
        with pytest.raises(ResourceLimitExceeded):
            certify_irreducible(f, PairConfig(specs, 3, limit=1))
        with pytest.raises(TypeError):  # names is keyword-only
            certify_irreducible(f, PairConfig(specs, 3), 1)

    def test_variable_table_invariants(self):
        config = PairConfig(
            [Inert((1, 0, 1), Fraction(1, 2)),
             RationalCenter(Fraction(0), Fraction(1, 3))], 3)
        cert = certify_irreducible(P("x^2*y^2 + 1"), config)
        table = cert.to_json_dict()["variables"]
        assert table[0]["m"] == 2 and table[0]["e"] == 2
        assert table[1]["m"] == 1 and table[1]["e"] == 3
        assert table[0]["h"] == "3"  # p^(e*lambda)


def _lifted(config, terms, seed=0):
    """A lifting of the residue with the given {Z-exponents: int} terms."""
    field = config.field
    T = ResiduePoly(field, config.nvars,
                    {e: field.from_int(c) for e, c in terms.items()})
    return generate_lifting(T, config, seed)


INERT_RC = PairConfig([Inert((1, 0, 1), Fraction(1, 2)),
                       RationalCenter(Fraction(1, 2), Fraction(1, 3))], 3)
SHIFTED = PairConfig([RationalCenter(Fraction(1), Fraction(1, 2)),
                      RationalCenter(Fraction(-1, 2), Fraction(2, 3))], 5)


class TestCertificateWriter:
    # (label, config, f, names, verdict, failed condition)
    CASES = [
        ("certified", gauss_config(3, 2),
         P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1"), ["x", "y"],
         VERDICT_CERTIFIED, None),
        ("not-a-lifting-i", eisenstein_config(2, 2), P("2*x", ("x",)), None,
         VERDICT_NOT_A_LIFTING, "i"),
        ("not-a-lifting-ii", eisenstein_config(2, 2), P("x^2 + x", ("x",)),
         ["x"], VERDICT_NOT_A_LIFTING, "ii"),
        ("not-a-lifting-iii", rc_config(2, [Fraction(1, 2), Fraction(1, 2)]),
         P("x^2*y^2 + 2*x*y + 4"), None, VERDICT_NOT_A_LIFTING, "iii"),
        ("reducible", gauss_config(3, 2), P("x^2*y^2 - 1"), ["x", "y"],
         VERDICT_RESIDUE_REDUCIBLE, None),
        ("is-variable", eisenstein_config(2, 2), P("x^2 + 2*x + 4", ("x",)),
         None, VERDICT_RESIDUE_IS_VARIABLE, None),
        ("inert-ramified", INERT_RC,
         _lifted(INERT_RC, {(1, 1): 1, (0, 0): 2}, seed=7), None,
         VERDICT_CERTIFIED, None),
        ("shifted-ramified", SHIFTED,
         _lifted(SHIFTED, {(2, 1): 1, (1, 0): 3, (0, 0): 1}), ["u", "v"],
         VERDICT_CERTIFIED, None),
        ("escaped-names", gauss_config(3, 2),
         P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1"), ['x"1', "\u00e9\\y"],
         VERDICT_CERTIFIED, None),
    ]

    @pytest.mark.parametrize(
        "config,f,names,verdict,condition",
        [case[1:] for case in CASES], ids=[case[0] for case in CASES])
    def test_matches_indent_2(self, config, f, names, verdict, condition):
        cert = certify_irreducible(f, config, names=names)
        assert cert.verdict == verdict
        if condition is not None:
            assert cert.reason.startswith(f"condition ({condition}) failed")
        text = cert.to_json()
        assert json.dumps(json.loads(text), indent=2) == text
        assert cert.to_json_dict() == json.loads(text)
        variables = [v["variable"] for v in json.loads(text)["variables"]]
        assert variables == (names or ["x1", "x2"][:config.nvars])

    def test_rows_come_from_templates(self, monkeypatch):
        # once a configuration's header is rendered, a certificate is
        # written without json.dumps
        config = gauss_config(3, 2)
        f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
        first = certify_irreducible(f, config, names=["x", "y"]).to_json()
        dumps = json.dumps

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(lifting.json, "dumps", refuse)
        for g in (f, P("x^2*y^2 - 1"), P("x + y")):
            text = certify_irreducible(g, config, names=["x", "y"]).to_json()
            assert dumps(json.loads(text), indent=2) == text
            assert text[text.index('"prime"'):text.index('"t"')] == (
                first[first.index('"prime"'):first.index('"t"')])

    def test_header_slot_follows_the_names(self):
        # one configuration, three sets of names: the kept header must
        # never print another certificate's variables
        config = PairConfig(
            [RationalCenter(Fraction(0), Fraction(0))] * 2, 3)
        f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
        certs = [certify_irreducible(f, config, names=names)
                 for names in (["x", "y"], ["a", "b"], None)]
        assert config.rendered_header is None  # certify renders nothing
        for names, cert in zip((["x", "y"], ["a", "b"], ["x1", "x2"]), certs):
            doc = json.loads(cert.to_json())
            assert [v["variable"] for v in doc["variables"]] == names
            assert doc["input"] == f.to_str(names)
        assert config.rendered_header[0] is None
        assert json.loads(certs[0].to_json())["variables"][0]["phi"] == "x"
        assert config.rendered_header[0] == ("x", "y")


class TestCheckRows:
    # two criterion-4 members with different coefficients and residues
    MEMBERS = [P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1"),
               P("x^2*y^2 + 2*x*y + x + 5*y + 7")]

    def test_members_share_their_rows(self):
        a, b = (check_lifting(f, gauss_config(3, 2)) for f in self.MEMBERS)
        assert a.ok and b.ok and a.residue != b.residue
        assert len(a.checks) == len(b.checks) == 10
        assert all(x is y for x, y in zip(a.checks, b.checks))

    def test_failing_row_is_not_the_passing_row(self):
        config = gauss_config(3, 2)
        passing = {c.name: c for c in check_lifting(self.MEMBERS[0],
                                                    config).checks}
        # two condition (i) failures and one condition (ii) failure
        for text in ("2*x^2*y^2 + 1", "x^2*y^2 + x^3", "x^2*y^2 + 1/3*x*y"):
            failed = check_lifting(P(text), config).failed
            assert not failed.passed
            assert failed is not passing[failed.name]
        # the same texts with the other outcome, and equal values of
        # another type, are rows of their own
        row = lifting._row
        assert row("w_total", 0, 0, True) is not row("w_total", 0, 0, False)
        assert row("w_total", True, 1, True).lhs == "True"
        assert row("w_total", 1, 1, True).lhs == "1"

    def test_row_json_is_the_indent_2_rendering(self):
        rows = []
        for _, config, f, names, *_ in TestCertificateWriter.CASES:
            rows += certify_irreducible(f, config, names=names).checks
        rows.append(lifting._row('a"\u00e9', "x\n", "\\", False))
        for c in rows:
            fields = {"name": c.name, "lhs": c.lhs, "rhs": c.rhs,
                      "pass": c.passed}
            assert c.json == json.dumps(fields, indent=2).replace(
                "\n", "\n    ")

    def test_row_cache_is_bounded(self):
        assert lifting._row.cache_info().maxsize == lifting.RESIDUE_CACHE_SIZE


class TestResidueCache:
    def test_cache_is_bounded(self, monkeypatch):
        # more distinct residues than the cache holds: it keeps at most
        # its size, and every miss goes through the module global (from
        # c = 1: Z1 + 0 is the excluded coordinate, never decided)
        misses = []

        def fake(residue, limit):
            misses.append(residue)
            return True

        monkeypatch.setattr(lifting, "is_irreducible_multivariate", fake)
        field = ResidueField(2003, [])
        residues = [
            ResiduePoly(field, 1, {(1,): field.one, (0,): field.from_int(c)})
            for c in range(1, lifting.RESIDUE_CACHE_SIZE + 11)
        ]
        cached = lifting._residue_record
        cached.cache_clear()
        try:
            for residue in residues:
                assert cached(residue, 10).verdict == VERDICT_CERTIFIED
            assert cached.cache_info().currsize == lifting.RESIDUE_CACHE_SIZE
            # the last is a hit; the first was evicted, so it is a miss
            assert cached(residues[-1], 10).verdict == VERDICT_CERTIFIED
            assert cached(residues[0], 10).verdict == VERDICT_CERTIFIED
            assert misses == residues + [residues[0]]
        finally:
            cached.cache_clear()

    # (verdict, config, [(f, names)]): several f and names, one residue
    SHARED = [
        (VERDICT_CERTIFIED, gauss_config(3, 2), [
            (P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1"), ["x", "y"]),
            (P("x^2*y^2 + 1"), ["x", "y"]),
            (P("x^2*y^2 + 1"), ["a", "b"]),
            (P("x^2*y^2 + 1"), None),
        ]),
        (VERDICT_RESIDUE_REDUCIBLE, gauss_config(3, 2), [
            (P("x^2*y^2 - 1"), ["x", "y"]),
            (P("x^2*y^2 + 3*x*y - 1"), None),
            (P("x^2*y^2 + 3*x*y - 1"), ["u", "v"]),
        ]),
        (VERDICT_RESIDUE_IS_VARIABLE, eisenstein_config(2, 2), [
            (P("x^2 + 2*x + 4", ("x",)), ["x"]),
            (P("x^2 + 4*x + 12", ("x",)), None),
            (P("x^2 + 4*x + 12", ("x",)), ["t"]),
        ]),
    ]

    @pytest.mark.parametrize("verdict,config,cases", SHARED,
                             ids=[case[0] for case in SHARED])
    def test_hit_matches_a_cleared_cache(self, verdict, config, cases):
        cached = lifting._residue_record
        cold = []
        for f, names in cases:
            cached.cache_clear()
            cold.append(certify_irreducible(f, config, names=names))
        cached.cache_clear()
        first = certify_irreducible(cases[0][0], config)  # the one miss
        for (f, names), miss in zip(cases, cold):
            hit = certify_irreducible(f, config, names=names)
            assert hit.verdict == verdict
            assert hit.record is first.record
            assert hit.checks == miss.checks
            assert hit.to_json() == miss.to_json()
        info = cached.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, len(cases))

    def test_guard_trip_is_not_cached(self, monkeypatch):
        calls = []

        def counted(residue, limit):
            calls.append(limit)
            return is_irreducible_multivariate(residue, limit)

        monkeypatch.setattr(lifting, "is_irreducible_multivariate", counted)
        f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
        specs = [RationalCenter(Fraction(0), Fraction(0))] * 2
        lifting._residue_record.cache_clear()
        for _ in range(2):
            with pytest.raises(ResourceLimitExceeded):
                certify_irreducible(f, PairConfig(specs, 3, limit=1))
        assert calls == [1, 1]
        assert lifting._residue_record.cache_info().currsize == 0
        assert certify_irreducible(f, PairConfig(specs, 3)).certified
        assert len(calls) == 3


class TestGenerate:
    def test_round_trip_gauss(self):
        config = gauss_config(3, 2)
        field = config.field
        T = ResiduePoly(field, 2, {(2, 2): field.one, (0, 0): field.one})
        f = generate_lifting(T, config)
        assert f == P("x^2*y^2 + 1")
        cert = certify_irreducible(f, config)
        assert cert.certified
        assert cert.residue == T

    def test_seed_adds_noise_preserving_residue(self):
        config = gauss_config(3, 2)
        field = config.field
        T = ResiduePoly(field, 2, {(2, 2): field.one, (0, 0): field.one})
        f0 = generate_lifting(T, config, seed=0)
        f1 = generate_lifting(T, config, seed=1)
        assert f0 != f1
        cert = certify_irreducible(f1, config)
        assert cert.certified and cert.residue == T

    def test_generation_deterministic_per_seed(self):
        config = rc_config(2, [Fraction(1, 2)])
        field = config.field
        T = ResiduePoly(field, 1, {(1,): field.one, (0,): field.one})
        assert generate_lifting(T, config, 7) == generate_lifting(T, config, 7)

    def test_eisenstein_shape(self):
        config = rc_config(2, [Fraction(1, 2)])
        field = config.field
        T = ResiduePoly(field, 1, {(1,): field.one, (0,): field.one})
        assert generate_lifting(T, config) == P("x^2 + 2", ("x",))

    def test_rejects_coordinate(self):
        config = gauss_config(3, 1)
        field = config.field
        T = ResiduePoly(field, 1, {(1,): field.one})
        with pytest.raises(GenerationError):
            generate_lifting(T, config)

    def test_rejects_degree_zero(self):
        config = gauss_config(3, 2)
        field = config.field
        T = ResiduePoly(field, 2, {(1, 0): field.one, (0, 0): field.one})
        with pytest.raises(GenerationError):
            generate_lifting(T, config)

    def test_rejects_non_monic(self):
        config = gauss_config(3, 2)
        field = config.field
        T = ResiduePoly(field, 2, {(2, 2): field.from_int(2),
                                   (0, 0): field.one})
        with pytest.raises(GenerationError):
            generate_lifting(T, config)

    def test_rejects_unliftable_boundary(self):
        # a coefficient at full Z1-degree involving y1 cannot be lifted
        # without overflowing the per-variable degree bound
        config = PairConfig(
            [Inert((1, 0, 1), Fraction(1, 2)),
             RationalCenter(Fraction(0), Fraction(1))], 3)
        field = config.field
        y = field.element({(1,): 1})
        T = ResiduePoly(field, 2, {(1, 1): field.one, (1, 0): y})
        with pytest.raises(GenerationError):
            generate_lifting(T, config)

    def test_field_mismatch(self):
        config = gauss_config(3, 2)
        other = gauss_config(5, 2)
        T = ResiduePoly(other.field, 2, {(1, 1): other.field.one,
                                         (0, 0): other.field.one})
        with pytest.raises(ConfigError):
            generate_lifting(T, config)

    def test_inert_round_trip(self):
        config = PairConfig(
            [Inert((1, 0, 1), Fraction(1, 2)),
             RationalCenter(Fraction(0), Fraction(1, 3))], 3)
        field = config.field
        y = field.element({(1,): 1})
        T = ResiduePoly(field, 2, {(1, 1): field.one, (0, 0): y})
        for seed in (0, 1, 2):
            f = generate_lifting(T, config, seed)
            cert = certify_irreducible(f, config)
            assert cert.certified, cert.verdict
            assert cert.residue == T

    def test_division_guard_matches_certify(self):
        # generate undoes the division by x^2 + 1 under config.limit with
        # the work count that expanding its result makes: just above the
        # limit both refuse with the same need, and at the limit the
        # lifting generates and certifies
        specs = [Inert((1, 0, 1), Fraction(1, 6))]
        field = PairConfig(specs, 3).field
        T = ResiduePoly(field, 1, {(1,): field.one,
                                   (0,): field.element({(1,): 1})})
        f = generate_lifting(T, PairConfig(specs, 3))
        with pytest.raises(ResourceLimitExceeded) as expanded:
            PairConfig(specs, 3, 20).expansion_table(f)
        needed = expanded.value.needed
        assert expanded.value.bound_name == "phi-adic division work"
        with pytest.raises(ResourceLimitExceeded,
                           match="phi-adic division work") as generated:
            generate_lifting(T, PairConfig(specs, 3, needed - 1))
        assert generated.value.needed == needed
        config = PairConfig(specs, 3, needed)
        assert generate_lifting(T, config) == f
        assert certify_irreducible(f, config).certified

    # centres at powers of p: the noise is expanded at them, so its own w
    # can lie below 0 and the first placements fail
    NOISE_CONFIGS = [config for _, config in SPLIT_CONFIGS] + [
        PairConfig([RationalCenter(Fraction(1, 9), Fraction(0))], 3),
        PairConfig([RationalCenter(Fraction(3), Fraction(1))], 3),
    ]

    def test_skipped_noise_levels_fail(self, rng):
        # every level that the jump after the first failed placement
        # skips fails too, so the jump changes no lifting
        skipped = 0
        for config in self.NOISE_CONFIGS:
            for seed in range(1, 11):
                T, t = liftable_residue(rng, config)
                f = generate_lifting(T, config)
                noise = lifting._noise(random.Random(seed), config, t)
                for level in range(
                        int(config.lifting_target(t)) + 2,
                        lifting._least_noise_level(noise, config, t)):
                    skipped += 1
                    report = check_lifting(f + noise.scale(config.p ** level),
                                           config)
                    assert not (report.ok and report.residue == T)
                cert = certify_irreducible(generate_lifting(T, config, seed),
                                           config)
                assert cert.residue == T
        assert skipped > 0

    def test_noise_placement_gives_up_with_a_guard(self, monkeypatch):
        config = gauss_config(3, 2)
        field = config.field
        T = ResiduePoly(field, 2, {(2, 2): field.one, (0, 0): field.one})
        monkeypatch.setattr(lifting, "check_lifting",
                            lambda g, config: lifting.CheckReport([], failed=1))
        with pytest.raises(ResourceLimitExceeded, match="noise placement"):
            generate_lifting(T, config, seed=1)


class TestEisensteinSubsumption:
    def test_random_eisenstein_certify(self, rng):
        # classical Eisenstein polynomials are liftings of Z + u at the
        # (0, 1/deg) rational-center pair
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            d = rng.randint(2, 6)
            coeffs = [p * rng.choice([1, 2 if p != 2 else 3])]
            for _ in range(d - 1):
                coeffs.append(p * rng.randint(0, 2))
            coeffs.append(1)
            # ensure v_p(constant) is exactly 1
            assert coeffs[0] % (p * p) != 0
            f = MultiPoly.from_univariate(1, 0, coeffs)
            cert = certify_irreducible(f, eisenstein_config(p, d))
            assert cert.certified, (coeffs, cert.verdict)


def _desk_cases(rng, p, per_kind):
    """(kind, f, config) triples in one variable: Gauss pairs on small
    monic f of degree <= 8, and ramified centres c in {0, 1} with delta
    = 1/e on f = g(x - c), where g meets the lifting valuations
    v(g_k) >= t - k/e with small units, so its residue is random."""
    gauss = gauss_config(p, 1)
    for _ in range(per_kind):
        d = rng.randint(2, 8)
        coeffs = [rng.randint(-p, p) for _ in range(d)] + [1]
        yield "gauss", MultiPoly.from_univariate(1, 0, coeffs), gauss
    for _ in range(per_kind):
        d = rng.randint(2, 8)
        e = rng.choice([k for k in (d, d // 2) if d % k == 0 and d // k <= 2])
        t = d // e
        c = rng.choice([0, 1])
        coeffs = [p ** -(-(t * e - k) // e) * rng.randint(-2, 2)
                  for k in range(d)] + [1]
        g = MultiPoly.from_univariate(1, 0, coeffs)
        config = PairConfig([RationalCenter(Fraction(c), Fraction(1, e))], p)
        yield "ramified", g.shift(0, -c), config


class TestDeskScaleSoundness:
    def test_certified_univariate_is_oracle_irreducible(self):
        # Ben-Or's test decides every one-variable residue here; each
        # Certified verdict must meet an oracle that finds no factor
        rng = random.Random(20261018)
        certified = set()
        for p in (2, 3, 5, 7):
            for kind, f, config in _desk_cases(rng, p, 50):
                if certify_irreducible(f, config).certified:
                    assert brute_factor(f).irreducible, (f, config.specs)
                    certified.add((p, kind))
        assert len(certified) == 8

    def test_certified_bivariate_is_oracle_irreducible(self):
        # n = 2: seeded liftings of random monic T, their noise variants
        # and mutants; a Certified verdict must meet an oracle that finds
        # no factor within its default guard
        rng = random.Random(20261019)
        certified = set()
        for p in (2, 3, 5, 7):
            for kind, f, config in _bivariate_desk_cases(rng, p, 12):
                if certify_irreducible(f, config).certified:
                    assert brute_factor(f).irreducible, (f, config.specs)
                    certified.add((p, kind))
        assert len(certified) == 8

    def test_v4_quartic_is_never_certified(self):
        # x^4 - 60x^2 + 16, the minimal polynomial of sqrt(13) + sqrt(17),
        # is irreducible over Q but splits over every Q_p, so no lifting
        # certificate exists for it; its residues run through the
        # distinct-degree loop behind Ben-Or's test
        f = P("x^4 - 60*x^2 + 16", ("x",))
        for p in (p for p in range(2, 100) if exactnum.is_prime(p)):
            assert not certify_irreducible(f, gauss_config(p, 1)).certified


INERT_PHI = {2: (1, 1, 1), 3: (1, 0, 1), 5: (2, 0, 1), 7: (1, 0, 1)}


def _bivariate_desk_cases(rng, p, per_kind):
    """(kind, f, config) triples in two variables, of degree <= 2 in the
    first and <= 3 in the second: a ramified rational centre c in {0, 1}
    with delta = 1/2, or an inert phi (irreducible mod p) with delta = 1,
    beside a Gauss pair at 0 or 1.  Each random monic T yields its
    lifting, a noise variant of it, and the lifting plus one random
    monomial.  The oracle's Kronecker search grows steeply with the
    degrees and with the coefficients, which the pair deltas scale by
    powers of p, so both stay small."""
    for kind in ("ramified", "inert"):
        made = 0
        while made < per_kind:
            if kind == "inert":
                first = Inert(INERT_PHI[p], Fraction(1))
            else:
                first = RationalCenter(Fraction(rng.choice([0, 1])),
                                       Fraction(1, 2))
            config = PairConfig([first, RationalCenter(
                Fraction(rng.choice([0, 1])), Fraction(0))], p)
            T = _random_monic(rng, config.field, (1, rng.randint(1, 3)))
            try:
                f = generate_lifting(T, config)
                noisy = generate_lifting(T, config, rng.randint(1, 99))
            except GenerationError:
                continue  # T puts the inert generator on a top coefficient
            exps = tuple(rng.randint(0, f.degree_in(i)) for i in range(2))
            mutant = f + MultiPoly(2, {
                exps: rng.choice([-1, 1]) * rng.choice([1, p])})
            for g in (f, noisy, mutant):
                if not g.is_zero:
                    yield kind, g, config
            made += 1


def _random_monic(rng, field, t):
    """A random T of degree t_i in Z_i with coefficient 1 at Z^t."""
    gens = field.nyvars
    terms = {t: field.one}
    for exps in itertools.product(range(t[0] + 1), range(t[1] + 1)):
        if exps != t and rng.random() < 0.6:
            terms[exps] = field.element({
                y: rng.randrange(field.p)
                for y in itertools.product(range(2), repeat=gens)})
    return ResiduePoly(field, 2, terms)


class TestMonotoneDiagnosis:
    def test_checks_stop_at_first_failure(self):
        config = gauss_config(3, 2)
        cert = certify_irreducible(P("x + y"), config)  # degree_in fails? no
        # x + y has degree 1 in each variable with e*m = 1, t = (1,1),
        # total degree 1 != 2 -> condition (i) total_degree failure
        assert cert.verdict == VERDICT_NOT_A_LIFTING
        failed = [c for c in cert.checks if not c.passed]
        assert len(failed) == 1
        assert failed[0].name == "total_degree"
        assert cert.checks[-1] is failed[0]


class TestSuggest:
    def test_always_includes_gauss(self):
        configs = suggest_pairs(P("x^2*y^2 + 1"), 3)
        assert [RationalCenter(Fraction(0), Fraction(0))] * 2 in configs

    def test_eisenstein_slope_found(self):
        configs = suggest_pairs(P("x^2 + 2", ("x",)), 2)
        assert [RationalCenter(Fraction(0), Fraction(1, 2))] in configs

    def test_suggested_config_certifies(self):
        f = P("x^2 + 2", ("x",))
        verdicts = set()
        for specs in suggest_pairs(f, 2):
            cert = certify_irreducible(f, PairConfig(specs, 2))
            verdicts.add(cert.verdict)
        assert VERDICT_CERTIFIED in verdicts

    def test_newton_polygon_drops_a_point_above_the_hull(self):
        # valuations 1, 3, 0 at x^0, x^2, x^4: the lower hull pops (2, 3)
        # and keeps one edge of slope -1/4; keeping the point would give the
        # slopes -1 and 3/2 and suggest delta 3/2
        f = P("x^4 + 8*x^2 + 2", ("x",))
        quarter = [RationalCenter(Fraction(0), Fraction(1, 4))]
        assert suggest_pairs(f, 2) == [
            [RationalCenter(Fraction(0), Fraction(0))], quarter]
        cert = certify_irreducible(f, PairConfig(quarter, 2))
        assert cert.verdict == VERDICT_CERTIFIED

    def test_zero_rejected(self):
        from liftcert import MultiPoly

        with pytest.raises(ConfigError):
            suggest_pairs(MultiPoly.zero(1), 3)


class TestResidueJson:
    def test_round_trip(self):
        config = PairConfig(
            [Inert((1, 0, 1), Fraction(1, 2)),
             RationalCenter(Fraction(0), Fraction(1, 3))], 3)
        field = config.field
        y = field.element({(1,): 1})
        T = ResiduePoly(field, 2, {(2, 2): field.one, (1, 0): y,
                                   (0, 0): field.from_int(2)})
        doc = residue_to_json(T)
        assert doc["p"] == 3
        assert residue_from_json(doc, config) == T

    def test_prime_mismatch(self):
        config = gauss_config(3, 2)
        with pytest.raises(ConfigError):
            residue_from_json({"p": 5, "coeffs": []}, config)

    def test_wrong_arity(self):
        config = gauss_config(3, 2)
        with pytest.raises(ConfigError):
            residue_from_json(
                {"p": 3, "coeffs": [{"exp": [1], "c": "1"}]}, config
            )

