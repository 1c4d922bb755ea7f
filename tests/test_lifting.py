"""Lifting verification, certificates, generation, and suggestions."""

import json
import random
from fractions import Fraction

import pytest

from liftcert import (
    Inert,
    PairConfig,
    RationalCenter,
    ResiduePoly,
    certify_irreducible,
    check_lifting,
    generate_lifting,
    suggest_pairs,
)
from liftcert.errors import ConfigError
from liftcert.finitefield import is_irreducible_multivariate
from liftcert.lifting import (
    VERDICT_CERTIFIED,
    VERDICT_NOT_A_LIFTING,
    VERDICT_RESIDUE_IS_VARIABLE,
    VERDICT_RESIDUE_REDUCIBLE,
    GenerationError,
    residue_from_json,
    residue_to_json,
)

from conftest import P, gauss_config, rc_config


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
        assert report.residue is None
        cert = certify_irreducible(f, config)
        assert cert.verdict == VERDICT_NOT_A_LIFTING
        assert cert.reason.startswith(
            "condition (iii) failed: contributing_index_x1: 1 in (1, 1)")

    def test_residue_monic_follows_from_monic_input(self, rng):
        # for a monic f with the right degrees, the top expansion index
        # e*t always carries the digit 1 and always contributes, so the
        # residue_monic check passes whenever the earlier checks do (the
        # ResidueNotMonic verdict is a defensive branch)
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
        # q = 1031: q^2 exceeds the candidate count, so the divisor
        # search computes its arithmetic on lookup instead of building
        # tables; 1031 = 3 mod 4, so -1 is not a square and x^2 + 1 has
        # no root
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

    def test_variable_table_invariants(self):
        config = PairConfig(
            [Inert((1, 0, 1), Fraction(1, 2)),
             RationalCenter(Fraction(0), Fraction(1, 3))], 3)
        cert = certify_irreducible(P("x^2*y^2 + 1"), config)
        table = cert.to_json_dict()["variables"]
        assert table[0]["m"] == 2 and table[0]["e"] == 2
        assert table[1]["m"] == 1 and table[1]["e"] == 3
        assert table[0]["h"] == "3"  # p^(e*lambda)


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
            from liftcert import MultiPoly

            f = MultiPoly.from_univariate(1, 0, coeffs)
            cert = certify_irreducible(f, eisenstein_config(p, d))
            assert cert.certified, (coeffs, cert.verdict)


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
