"""Sparse polynomial arithmetic, phi-adic expansion, and contents."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcert import MultiPoly, multipoly, phi_expand, reconstruct
from liftcert.errors import ResourceLimitExceeded
from liftcert.multipoly import (
    PhiExpansion,
    VariableMismatch,
    content_valuation,
    grlex_key,
)
from liftcert.oracle import exact_divide

from conftest import P, random_poly


class TestArithmetic:
    def test_zero_terms_dropped(self):
        f = MultiPoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert set(f.terms) == {(0, 1)}

    def test_add_cancels(self):
        x = MultiPoly.variable(2, 0)
        assert (x - x).is_zero

    def test_mul_example(self):
        assert P("(x+y)^2") == P("x^2 + 2*x*y + y^2")

    def test_ring_axioms_random(self, rng):
        for _ in range(200):
            f = random_poly(rng, 2, 3, allow_fractions=True)
            g = random_poly(rng, 2, 3, allow_fractions=True)
            h = random_poly(rng, 2, 3, allow_fractions=True)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert (f + g) + h == f + (g + h)

    def test_pow(self):
        x = MultiPoly.variable(1, 0)
        assert (x + MultiPoly.constant(1, 1)) ** 0 == MultiPoly.constant(1, 1)
        assert x ** 5 == MultiPoly(1, {(5,): 1})
        with pytest.raises(ValueError):
            x ** -1

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            MultiPoly.variable(1, 0) + MultiPoly.variable(2, 0)

    def test_degrees(self):
        f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
        assert f.degree() == 4
        assert f.degree_in(0) == 2
        assert f.degree_in(1) == 2
        assert MultiPoly.zero(2).degree() == -1

    def test_shift(self, rng):
        f = P("x^2", ("x",))
        assert f.shift(0, 1) == P("x^2 + 2*x + 1", ("x",))
        # shifting back is the inverse
        g = random_poly(rng, 2, 4)
        assert g.shift(0, Fraction(3, 2)).shift(0, Fraction(-3, 2)) == g
        # the digits of g in base x - a are the coefficients of g(x + a)
        for _ in range(50):
            g = random_poly(rng, 2, 4, allow_fractions=True)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            digits = phi_expand(g, [[-a, Fraction(1)], [0, 1]]).terms
            assert g.shift(0, a) == MultiPoly(2, {
                idx: digit.constant_value() for idx, digit in digits.items()
            })


def naive_shift(f, i, a):
    """f(x_i + a) as the sum over f's terms c*x^k of c*comb(k, j)*a^(k-j)
    at x_i^j, on Fractions."""
    terms = {}
    for exps, c in f.terms.items():
        k = exps[i]
        for j in range(k + 1):
            e = exps[:i] + (j,) + exps[i + 1:]
            terms[e] = terms.get(e, 0) + c * math.comb(k, j) * a ** (k - j)
    return MultiPoly(f.nvars, terms)


def naive_sum(n, phis, digits):
    """sum_I a_I * prod_j phi_j^{i_j}, by products of MultiPolys."""
    f = MultiPoly.zero(n)
    for idx, a in digits.items():
        for j, (phi, k) in enumerate(zip(phis, idx)):
            a = a * MultiPoly.from_univariate(n, j, phi) ** k
        f = f + a
    return f


class TestReferences:
    """shift and reconstruct against sums written out here."""

    def test_shift_matches_binomial_sum(self, rng):
        for _ in range(300):
            n = rng.randint(1, 3)
            f = random_poly(rng, n, 7, max_terms=6, allow_fractions=True)
            i = rng.randrange(n)
            a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                         rng.randint(1, 7))
            assert f.shift(i, a) == naive_shift(f, i, a)

    def test_high_degree_shift_matches_binomial_sum(self):
        f = MultiPoly(1, {(60,): Fraction(5, 6), (7,): Fraction(-3, 4)})
        for a in (Fraction(1), Fraction(-7, 3), Fraction(1, 2)):
            assert f.shift(0, a) == naive_shift(f, 0, a)

    PHIS = [
        [Fraction(7, 3), Fraction(1)],  # centre -7/3
        [Fraction(-1, 2), Fraction(1)],  # centre 1/2
        [Fraction(-1), Fraction(1)],  # centre 1
        [Fraction(1), Fraction(0), Fraction(1)],  # x^2 + 1
        [Fraction(1), Fraction(1), Fraction(1)],  # x^2 + x + 1
    ]

    def test_reconstruct_matches_naive_sum(self, rng):
        # canonical digit tables drawn directly, not from phi_expand
        for _ in range(200):
            n = rng.randint(1, 3)
            phis = [rng.choice(self.PHIS) for _ in range(n)]
            ms = [len(phi) - 1 for phi in phis]
            digits = {}
            for _ in range(rng.randint(1, 4)):
                idx = tuple(rng.randint(0, 4) for _ in range(n))
                digit = MultiPoly(n, {
                    tuple(rng.randrange(m) for m in ms):
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for _ in range(rng.randint(1, 3))})
                if not digit.is_zero:
                    digits[idx] = digit
            expansion = PhiExpansion(n, phis, digits)
            f = reconstruct(expansion)
            assert f == naive_sum(n, phis, digits)
            assert phi_expand(f, phis).terms == digits

    @pytest.mark.parametrize("phi,rest", [
        ([Fraction(1), Fraction(0), Fraction(1)], (2,)),
        ([Fraction(-1), Fraction(1)], (1,)),
    ], ids=["inert-x^2", "centre-x"])
    def test_non_canonical_digit_raises(self, phi, rest):
        digits = {(1,): MultiPoly(1, {rest: 1, (0,): 1})}
        with pytest.raises(ValueError, match="degree"):
            reconstruct(PhiExpansion(1, [phi], digits))


class TestToStr:
    def test_canonical_form(self):
        f = P("1 + 3*y + 6*x + 3*x*y + x^2*y^2")
        assert f.to_str(["x", "y"]) == "x^2*y^2 + 3*x*y + 6*x + 3*y + 1"

    def test_negative_leading(self):
        assert P("-x + 1", ("x",)).to_str(["x"]) == "-x + 1"

    def test_grlex_key_orders_by_total_degree_first(self):
        assert grlex_key((0, 3)) > grlex_key((2, 0))
        assert grlex_key((2, 0)) > grlex_key((1, 1))


class TestPhiExpansion:
    def test_requires_monic(self):
        with pytest.raises(ValueError):
            phi_expand(P("x", ("x",)), [[Fraction(0), Fraction(2)]])

    def test_expansion_example(self):
        # [DERIVED]: x^2 + 3x + 5 in base x yields digits (5, 3, 1)
        f = P("x^2 + 3*x + 5", ("x",))
        exp = phi_expand(f, [[Fraction(0), Fraction(1)]])
        digits = {i: a for i, a in exp.terms.items()}
        assert digits[(0,)] == MultiPoly.constant(1, 5)
        assert digits[(1,)] == MultiPoly.constant(1, 3)
        assert digits[(2,)] == MultiPoly.constant(1, 1)

    def test_inert_digit_degree_bound(self):
        # base x^2 + 1: every digit has degree < 2 in x
        f = P("x^5 + x^3 + x + 7", ("x",))
        exp = phi_expand(f, [[Fraction(1), Fraction(0), Fraction(1)]])
        for a in exp.terms.values():
            assert a.degree_in(0) < 2
        assert reconstruct(exp) == f

    def test_round_trip_random(self, rng):
        phi_choices = [
            [Fraction(0), Fraction(1)],
            [Fraction(-1), Fraction(1)],
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(1), Fraction(1)],
        ]
        for _ in range(1000):
            n = rng.randint(1, 3)
            f = random_poly(rng, n, 6, max_terms=5)
            phis = [rng.choice(phi_choices) for _ in range(n)]
            exp = phi_expand(f, phis)
            assert reconstruct(exp) == f
            for idx, a in exp.terms.items():
                assert not a.is_zero
                for j in range(n):
                    assert a.degree_in(j) < len(phis[j]) - 1

    def test_exponent_split_equals_division_by_x(self, rng):
        # for phi = x - a the digits are the exponents of f shifted to a;
        # dividing each coefficient list by x - a, the reference, gives
        # the same digits
        for _ in range(200):
            n = rng.randint(1, 3)
            f = random_poly(rng, n, 6, max_terms=8, allow_fractions=True)
            i = rng.randrange(n)
            phis = [[Fraction(0), Fraction(1)]] * n
            phis[i] = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                       Fraction(1)]
            digits = {idx: a.constant_value()
                      for idx, a in phi_expand(f, phis).terms.items()}
            assert multipoly._divide(f.terms, i, phis[i], 10 ** 9) == digits

    def test_shift_work_is_counted_before_it_starts(self):
        # x^3 + 1 to the centre 1/2 (u = 1, v = 2): x^3 makes 4 updates
        # of 3 + 1 + 1 + 0*2 + 3*1 bits, the constant one of 0 + 1 + 1 +
        # 3*2 + 0 bits, each counting 1.  reconstruct shifts x^3 + 3/2x^2
        # + 3/4x + 9/8 back: 4 + 3 + 2 + 1 updates
        f = P("x^3 + 1", ("x",))
        phis = [[Fraction(-1, 2), Fraction(1)]]
        expansion = phi_expand(f, phis, limit=5)
        assert reconstruct(expansion, limit=10) == f
        for run, needed in ((lambda: phi_expand(f, phis, limit=4), 5),
                            (lambda: reconstruct(expansion, limit=9), 10)):
            with pytest.raises(ResourceLimitExceeded) as exc:
                run()
            assert exc.value.bound_name == "Taylor shift work"
            assert exc.value.needed == needed
        # x^40000 + 3 to the centre 1: x^40000 makes 40,001 updates of
        # 80,002 bits, counting 1 + 78 each, and the constant one of
        # 40,003 bits, counting 1 + 39; refused at once
        f = P("x^40000 + 3", ("x",))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitExceeded) as exc:
            phi_expand(f, [[Fraction(-1), Fraction(1)]])
        assert exc.value.needed == 40001 * 79 + 40
        assert time.perf_counter() - start < 0.5

    def test_expansion_is_unique(self, rng):
        # two polynomials with the same expansion table are equal
        phis = [[Fraction(1), Fraction(0), Fraction(1)]]
        f = random_poly(rng, 1, 5)
        g = random_poly(rng, 1, 5)
        if f != g:
            ef = phi_expand(f, phis).terms
            eg = phi_expand(g, phis).terms
            assert ef != eg


class TestContent:
    def test_examples(self):
        assert content_valuation(P("3*x*y + 6*x"), 3) == 1
        assert content_valuation(P("x + 3"), 3) == 0
        assert content_valuation(P("9/2", ("x",)), 3) == 2
        assert content_valuation(MultiPoly.zero(2), 3) is None

    def test_gauss_multiplicativity(self, rng):
        # Gauss's lemma: content of a product is the sum of contents
        for p in (2, 3, 5):
            for _ in range(300):
                f = random_poly(rng, 2, 3, allow_fractions=True)
                g = random_poly(rng, 2, 3, allow_fractions=True)
                assert content_valuation(f * g, p) == content_valuation(
                    f, p
                ) + content_valuation(g, p)


def assert_stored_form(f):
    """Every coefficient of f is an int, or a Fraction that is not
    integral: the one form in which an exact rational is stored."""
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


def _text(terms):
    """{(i, j): (n, d)} as "0 + n/d*x^i*y^j - ...", literals unreduced."""
    return "0" + "".join(
        f" {'-' if n < 0 else '+'} {abs(n)}/{d}*x^{i}*y^{j}"
        for (i, j), (n, d) in terms.items())


TERMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        st.tuples(st.integers(-9, 9), st.integers(1, 4)),
                        max_size=5)
RATIONALS = st.integers(-6, 6) | st.fractions(-6, 6, max_denominator=4)
PHIS = [[0, 1], [-2, 1], [Fraction(-1, 2), 1], [1, 0, 1], [1, 1, 1]]


class TestStoredForm:
    """An exact rational is stored as an int when it is integral, and as
    a Fraction otherwise, through every operation."""

    @settings(deadline=None)
    @given(TERMS, TERMS, RATIONALS, RATIONALS, st.integers(0, 1),
           st.sampled_from(PHIS), st.sampled_from(PHIS))
    def test_every_coefficient_is_an_int_or_a_proper_fraction(
            self, f_terms, g_terms, c, a, i, phi_x, phi_y):
        f, g = P(_text(f_terms)), P(_text(g_terms))
        assert f == MultiPoly(2, {e: Fraction(n, d)
                                  for e, (n, d) in f_terms.items()})
        product = P(f"({_text(f_terms)})*({_text(g_terms)})")
        assert product == f * g
        expansion = phi_expand(f, [phi_x, phi_y])
        results = [f, g, product, f + g, f - g, f * g, f.scale(c),
                   f.shift(i, a), reconstruct(expansion),
                   *expansion.terms.values()]
        if not g.is_zero:
            assert exact_divide(f * g, g) == f
            results.append(exact_divide(f * g, g))
            if exact_divide(f, g) is not None:
                results.append(exact_divide(f, g))
        for h in results:
            assert_stored_form(h)

    def test_exact_divide_by_three_times_itself(self):
        # with int coefficients, a bare / would give the float 0.333...
        q = exact_divide(P("x + 1"), P("3*x + 3"))
        assert q.terms == {(0, 0): Fraction(1, 3)}
        assert_stored_form(q)

    def test_integral_fractions_are_stored_as_ints(self):
        f = MultiPoly(1, {(1,): Fraction(4, 2), (0,): Fraction(1, 2)})
        assert type(f.terms[(1,)]) is int
        assert type((f + f).terms[(0,)]) is int
        assert type(P("1/2*x + 1/2*x", ("x",)).terms[(1,)]) is int

    @pytest.mark.parametrize("make", [
        lambda: MultiPoly(1, {(1,): 0.5}),
        lambda: MultiPoly(1, {(1,): 1.0}),
        lambda: MultiPoly.constant(2, 3.0),
        lambda: P("x").scale(0.5),
        lambda: MultiPoly(1, {(1,): 1 / 3}),
    ], ids=["half", "integral-float", "constant", "scale", "true-division"])
    def test_a_float_coefficient_raises(self, make):
        # a float holds a rounded value, so it fails loudly instead of
        # being stored as the Fraction of its binary expansion
        with pytest.raises(TypeError, match="float"):
            make()
