"""Expression grammar and canonical-form round trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liftcert import MultiPoly, ParseError, parse_polynomial
from liftcert.parse import MAX_NESTING

from conftest import random_poly


def test_worked_input():
    f = parse_polynomial("x^2*y^2 + 3*x*y + 6*x + 3*y + 1", ["x", "y"])
    assert f.coeff((2, 2)) == 1
    assert f.coeff((1, 1)) == 3
    assert f.coeff((1, 0)) == 6
    assert f.coeff((0, 1)) == 3
    assert f.coeff((0, 0)) == 1


def test_parenthesized_power():
    f = parse_polynomial("(x+y)^2", ["x", "y"])
    assert f == parse_polynomial("x^2 + 2*x*y + y^2", ["x", "y"])


def test_rational_coefficients():
    f = parse_polynomial("1/2*x + 3/4", ["x"])
    assert f.coeff((1,)) == Fraction(1, 2)
    assert f.coeff((0,)) == Fraction(3, 4)


def test_leading_minus():
    assert parse_polynomial("-x + 1", ["x"]) == parse_polynomial(
        "1 - x", ["x"]
    )


def test_whitespace_insignificant():
    a = parse_polynomial("x ^ 2 * y + 1", ["x", "y"])
    b = parse_polynomial("x^2*y+1", ["x", "y"])
    assert a == b


def test_variable_order_fixes_indices():
    f = parse_polynomial("a", ["b", "a"])
    assert f == MultiPoly.variable(2, 1)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x^-1", ["x"])
    assert exc.value.position == 2


def test_unknown_variable():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x + z", ["x", "y"])
    assert exc.value.position == 4


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse_polynomial("x + 1.5", ["x"])


def test_trailing_tokens():
    with pytest.raises(ParseError):
        parse_polynomial("x 1", ["x"])


def test_empty_input():
    with pytest.raises(ParseError):
        parse_polynomial("   ", ["x"])


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_polynomial("(x + 1", ["x"])


def test_canonical_round_trip_random(rng):
    names = ["x", "y", "z"]
    for _ in range(300):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 5, allow_fractions=True)
        text = f.to_str(names[:n])
        assert parse_polynomial(text, names[:n]) == f


@given(st.integers(min_value=0, max_value=9), st.integers(0, 6))
def test_monomial_round_trip(c, e):
    f = MultiPoly(1, {(e,): Fraction(c)})
    assert parse_polynomial(f.to_str(["x"]), ["x"]) == f


def test_nesting_limit():
    deep = MAX_NESTING * "(" + "x" + MAX_NESTING * ")"
    assert parse_polynomial(deep, ["x"]) == parse_polynomial("x", ["x"])
    too_deep = "(" + deep + ")"
    with pytest.raises(ParseError) as exc:
        parse_polynomial(too_deep, ["x"])
    assert exc.value.position == MAX_NESTING
    with pytest.raises(ParseError):
        parse_polynomial("(" * 5000 + "x" + ")" * 5000, ["x"])
