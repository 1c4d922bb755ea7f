"""The brute-force factorization oracle over the rationals."""

import random
import time
from fractions import Fraction

import pytest

from liftcert import MultiPoly, brute_factor
from liftcert.errors import ResourceLimitExceeded
from liftcert.oracle import exact_divide

from conftest import P


def _factor_strs(result, names=("x", "y")):
    return sorted(g.to_str(list(names)) for g, _ in result.factors)


class TestExamples:
    def test_difference_of_units(self):
        result = brute_factor(P("x^2*y^2 - 1"))
        assert not result.irreducible
        assert _factor_strs(result) == ["x*y + 1", "x*y - 1"]

    def test_worked_example_irreducible(self):
        result = brute_factor(P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1"))
        assert result.irreducible

    def test_univariate_split(self):
        result = brute_factor(P("x^2 - 1", ("x",)))
        assert _factor_strs(result, ("x",)) == ["x + 1", "x - 1"]

    def test_scalar_and_multiplicity(self):
        result = brute_factor(P("2*x^2 + 4*x + 2", ("x",)))
        assert result.scalar == 2
        assert result.factors == [(P("x + 1", ("x",)), 2)]

    def test_rational_scalar(self):
        result = brute_factor(P("1/2*x", ("x",)))
        assert result.scalar == Fraction(1, 2)
        assert result.factors == [(P("x", ("x",)), 1)]

    def test_constant(self):
        result = brute_factor(P("7", ("x",)))
        assert result.scalar == 7
        assert result.factors == []
        assert not result.irreducible

    def test_irrational_quadratic(self):
        # x^2 - 2 has no rational factorization
        assert brute_factor(P("x^2 - 2", ("x",))).irreducible

    def test_quartic_into_quadratics(self):
        # (x^2+1)(x^2+2) has no rational roots; needs the degree-2 search
        result = brute_factor(P("x^4 + 3*x^2 + 2", ("x",)))
        assert _factor_strs(result, ("x",)) == ["x^2 + 1", "x^2 + 2"]

    def test_primitive_factor_demap(self):
        result = brute_factor(P("(x + y)*(x*y + 2)"))
        assert _factor_strs(result) == ["x + y", "x*y + 2"]

    def test_factor_order_is_canonical(self):
        # factors of one degree and support are ordered by coefficients,
        # not by the order the search happens to find them in
        result = brute_factor(P("(x + 2)*(3*x - 4)*(x^2 + 1)", ("x",)))
        assert [g.to_str(["x"]) for g, _ in result.factors] == [
            "3*x - 4", "x + 2", "x^2 + 1"]

    def test_eisenstein_is_irreducible(self):
        assert brute_factor(P("x^5 + 2", ("x",))).irreducible

    @pytest.mark.parametrize("text, scalar, factors", [
        # lc(u) = -315 has fewer divisors than the values at the chosen
        # points, so the last level runs over the leads
        ("(21*x^2 + 40*x - 74)*(-15*x^2 + 28*x + 78)", -1,
         ["15*x^2 - 28*x - 78", "21*x^2 + 40*x - 74"]),
        # here a value at the last point has the fewer divisors
        ("(15*x^2 + 2*x + 2)*(-21*x^2 + 4*x + 6)", -1,
         ["15*x^2 + 2*x + 2", "21*x^2 - 4*x - 6"]),
        ("(-21*x^2 + 2)*(15*x^2 + 2*x - 2)*(35*x^2 + 2)", -1,
         ["15*x^2 + 2*x - 2", "21*x^2 - 2", "35*x^2 + 2"]),
        ("(15*x^2 + 6*x + 70)*(-35*x^2 + 58*x - 86)", -1,
         ["15*x^2 + 6*x + 70", "35*x^2 - 58*x + 86"]),
    ])
    def test_non_monic_eisenstein_products(self, text, scalar, factors):
        # each factor is Eisenstein at 2 with an odd composite lead, so
        # none has a rational root and lc(g) is a proper divisor of lc(u)
        result = brute_factor(P(text, ("x",)))
        assert result.scalar == scalar
        assert [m for _, m in result.factors] == [1] * len(factors)
        assert _factor_strs(result, ("x",)) == sorted(factors)
        assert result.reconstruct(1) == P(text, ("x",))

    @pytest.mark.parametrize("text, factors", [
        ("x*y^7 + x + 1", ["x*y^7 + x + 1"]),
        ("y^8 + x", ["y^8 + x"]),
        ("x*y^6 + y + 1", ["x*y^6 + y + 1"]),
        ("(x*y^5 + 3)*(y^2 - x)", ["x*y^5 + 3", "y^2 - x"]),
    ])
    def test_base_follows_the_x_degree(self, text, factors):
        # D = 1 + deg_x f keeps the image's values small enough to list
        # their divisors; with D = 1 + max(deg_x, deg_y) these trip the
        # "divisor trials" guard
        result = brute_factor(P(text))
        assert result.scalar == 1
        assert _factor_strs(result) == sorted(factors)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            brute_factor(MultiPoly.zero(1))


class TestProperties:
    def test_reconstruction_random_products(self, rng):
        for _ in range(150):
            n = rng.randint(1, 2)

            def rand_factor():
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    e = tuple(rng.randint(0, 1) for _ in range(n))
                    terms[e] = Fraction(rng.randint(-3, 3))
                terms[tuple(1 for _ in range(n))] = Fraction(
                    rng.choice([1, 1, 2])
                )
                return MultiPoly(n, terms)

            f = rand_factor() * rand_factor()
            if f.is_zero or f.degree() > 8:
                continue
            result = brute_factor(f)
            assert result.reconstruct(n) == f
            assert not result.irreducible or len(result.factors) == 1

    def test_factors_are_idempotent(self, rng):
        # re-factoring a reported factor returns it unchanged
        for text in ("x^2*y^2 - 1", "x^4 + 3*x^2 + 2", "(x+y)^2*(x-y)"):
            f = P(text)
            for g, _ in brute_factor(f).factors:
                again = brute_factor(g)
                assert again.irreducible
                assert again.factors == [(g, 1)]

    def test_exact_divide(self, rng):
        f = P("x^2*y^2 - 1")
        g = P("x*y + 1")
        q = exact_divide(f, g)
        assert q is not None and q * g == f
        assert exact_divide(f, P("x + 1")) is None


class TestGuards:
    def test_too_many_variables(self):
        f = MultiPoly(3, {(1, 1, 1): Fraction(1)})
        with pytest.raises(ResourceLimitExceeded):
            brute_factor(f)

    def test_total_degree_bound(self):
        with pytest.raises(ResourceLimitExceeded):
            brute_factor(P("x^9 + 1", ("x",)))

    def test_node_guard(self):
        # a tiny candidate budget trips on the degree-2 factor search
        with pytest.raises(ResourceLimitExceeded):
            brute_factor(P("x^4 + 3*x^2 + 2", ("x",)), guard=2)

    def test_point_choice_decides_within_default_guard(self):
        # interpolating at 0, 1, -1, ... takes more than 10^6 divisor
        # tuples here; the points whose values have the fewest divisors
        # decide it quickly
        start = time.perf_counter()
        result = brute_factor(P(
            "x^2*y^2 - 2*x^2*y + x^2 + 43*y^2 + 7*x - 86*y + 78"))
        assert time.perf_counter() - start < 2
        assert result.irreducible

    def test_point_choice_skips_values_past_the_guard(self):
        # some window values need more than 10^6 divisor trials; ranking
        # them would trip the guard on an input it otherwise decides
        assert brute_factor(P(
            "x^3*y^3 + 2*x^3*y^2 - 2*x^2*y^3 - 6*x^2*y^2 + 4*x*y^3"
            " + 12*x^2*y + 7*x*y^2 - 2*y^3 + 2*x^2 - 4*x*y + 4*x + 2*y - 1"
        )).irreducible
