"""Expression grammar and canonical-form round trips."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liftcert import MultiPoly, ParseError, parse_polynomial
from liftcert.errors import ConfigError, ResourceLimitExceeded
from liftcert.parse import MAX_COEFF_BITS, MAX_DEGREE, MAX_NESTING

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


def test_bad_character_after_whitespace():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x + \t $", ["x"])
    assert exc.value.position == 6
    assert "'$'" in str(exc.value)


def test_trailing_whitespace():
    assert parse_polynomial("x + 1 \n\t", ["x"]) == parse_polynomial(
        "x + 1", ["x"])
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x +   ", ["x"])
    assert exc.value.position == 6  # the end of the text
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x 1  ", ["x"])
    assert exc.value.position == 2


def test_repeated_variable_name():
    with pytest.raises(ConfigError, match="distinct"):
        parse_polynomial("x", ["x", "x"])


def test_name_no_token_can_spell():
    # "3" is always the number 3, so a variable named "3", or any name
    # outside [A-Za-z_][A-Za-z_0-9]*, is refused rather than left
    # unreachable
    for name in ("3", "y z", "x-1", "\u00e9", ""):
        with pytest.raises(ConfigError, match="is not of the form"):
            parse_polynomial("3*x", ["x", name])


def test_trailing_tokens():
    with pytest.raises(ParseError):
        parse_polynomial("x 1", ["x"])


def test_empty_input():
    with pytest.raises(ParseError):
        parse_polynomial("   ", ["x"])


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_polynomial("(x + 1", ["x"])


@pytest.mark.parametrize("text, message, position", [
    ("x +", "unexpected end of input", 3),
    ("x *", "unexpected end of input", 3),
    ("x ^", "exponent must be a nonnegative integer", 3),
    ("(x", "expected ')'", 2),
    ("x + )", "unexpected token ')'", 4),
    ("x)", "unexpected token ')'", 1),
    ("x y", "unexpected token 'y'", 2),
    ("x + z", "unknown variable 'z'", 4),
    ("x + \t $", "unexpected character '$'", 6),
    # a stray character wins over an earlier error, as over a size guard
    ("x y $", "unexpected character '$'", 4),
    ("3^100000000 $", "unexpected character '$'", 12),
    ("x^y", "exponent must be a nonnegative integer", 2),
    ("x^1/2", "exponent must be a nonnegative integer", 2),
    ("x^-1", "exponent must be a nonnegative integer", 2),
    ("x^\u0663", "unexpected character '\u0663'", 2),
    ("3/0*x", "bad number: Fraction(3, 0)", 0),
    ("", "empty expression", 0),
    ("  \t ", "empty expression", 0),
    ((MAX_NESTING + 1) * "(" + "x" + (MAX_NESTING + 1) * ")",
     f"parentheses nested deeper than {MAX_NESTING}", MAX_NESTING),
])
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, ["x", "y"])
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


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


# ---------------------------------------------------------------------
# the parser against a reference evaluator that runs MultiPoly
# arithmetic for every factor, as one that builds no monomials directly

NAMES = ["x", "y"]


def _number():
    return st.one_of(
        st.integers(0, 30).map(str),
        st.tuples(st.integers(0, 30), st.integers(1, 9)).map(
            lambda ab: f"{ab[0]}/{ab[1]}"),
    )


def _expression(depth):
    """(leading minus, first term, [(sign, term), ...]); a term is a list
    of (base, exponent or None).  Sizes stay far below the parser's
    limits."""
    factor = st.tuples(st.one_of(
        _number().map(lambda t: ("number", t)),
        st.sampled_from(NAMES).map(lambda t: ("name", t))),
        st.none() | st.integers(0, 3))
    if depth:
        factor = factor | st.tuples(_expression(depth - 1).map(
            lambda e: ("paren", e)), st.none() | st.integers(0, 2))
    term = st.lists(factor, min_size=1, max_size=3)
    return st.tuples(st.booleans(), term, st.lists(
        st.tuples(st.sampled_from("+-"), term), max_size=3))


def _render(expr):
    lead, first, rest = expr

    def term(factors):
        out = []
        for (kind, value), k in factors:
            text = f"({_render(value)})" if kind == "paren" else value
            out.append(text if k is None else f"{text}^{k}")
        return "*".join(out)

    return ("-" if lead else "") + term(first) + "".join(
        f" {op} {term(t)}" for op, t in rest)


def _reference(expr):
    n = len(NAMES)
    lead, first, rest = expr

    def term(factors):
        result = MultiPoly.constant(n, 1)
        for (kind, value), k in factors:
            if kind == "number":
                f = MultiPoly.constant(n, Fraction(value))
            elif kind == "name":
                f = MultiPoly.variable(n, NAMES.index(value))
            else:
                f = _reference(value)
            result = result * (f if k is None else f ** k)
        return result

    total = term(first).scale(-1 if lead else 1)
    for op, t in rest:
        total = total + term(t) if op == "+" else total - term(t)
    return total


@example((True, [(("name", "x"), None)], [("+", [(("number", "1"), None)])]))
@example((False, [(("name", "x"), None), (("number", "2"), None),
                  (("name", "x"), 2)], []))
@example((False, [(("number", "3/4"), 2), (("name", "y"), None)],
          [("-", [(("number", "1/2"), 3)])]))
@example((False, [(("number", "0"), None), (("name", "x"), None)],
          [("+", [(("name", "y"), None)])]))
@example((False, [(("name", "x"), None)], [("-", [(("name", "x"), None)])]))
@example((True, [(("number", "2"), None),
                 (("paren", (False, [(("name", "x"), None)],
                             [("+", [(("name", "y"), 1)])])), 2),
                 (("name", "x"), 3)],
          [("+", [(("name", "x"), None), (("name", "y"), None)])]))
@example((False, [(("paren", (True, [(("paren", (
    False, [(("name", "y"), 2)], [("-", [(("number", "1/3"), None)])])),
    2)], [])), 3)], []))
@settings(deadline=None)
@given(_expression(1))
def test_parser_matches_reference_evaluator(expr):
    assert parse_polynomial(_render(expr), NAMES) == _reference(expr)


@pytest.mark.parametrize("text", [
    "2^1000000000000", "x^1000000000000 + 1", "x^60000*y^60000",
    "(x^60000 + 1)*(x^60000 + 1)", "(x+y+1)^100000",
    # coefficients: a power, a product, a sum, and two multiplications
    "x^2 + 3^10000", "(3^5000*x + 1)^2", "9" * 100 + "^100000*x",
    "3^7000*3^7000*x", "1/2^7000*x + 1/3^7000*x",
    "(3^7000*x + 1)*(2^7000*x + 1)", "(1/3^7000*x + 1/5^4000)*(x + 1)",
])
def test_size_guard(text):
    with pytest.raises(ResourceLimitExceeded):
        parse_polynomial(text, NAMES)


def test_size_guard_admits():
    assert parse_polynomial("x^2 + 3^2000", ["x"]).coeff((0,)) == 3 ** 2000
    widest = parse_polynomial("1^100000*x + 2^13999", ["x"]).coeff((0,))
    assert widest.numerator.bit_length() == MAX_COEFF_BITS
    assert len(parse_polynomial("x^50000 + 3", ["x"]).terms) == 2
    assert len(parse_polynomial(f"x^{MAX_DEGREE}", ["x"]).terms) == 1
    assert len(parse_polynomial("(x+y+1)^40", NAMES).terms) == 861


@pytest.mark.parametrize("text", ["3/0*x"])
def test_bad_number_is_a_parse_error(text):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, ["x"])
    assert exc.value.position == 0


@pytest.mark.parametrize("digits", [4215, 4216, 4300, 5000])
def test_long_literal_is_a_size_error(digits):
    # one rule for every numeral, whatever power it is raised to: the
    # digits after the leading zeros are counted before any int is
    # built, and 10^4215 - 1 is just above MAX_COEFF_BITS, so every
    # length from 4,215 digits, past Python's 4,300-digit conversion
    # limit too, is a size error
    for text in ("9" * digits + "*x", "1/" + "9" * digits + "*x",
                 "9" * digits + "^0*x"):
        with pytest.raises(ResourceLimitExceeded, match="coefficient bits"):
            parse_polynomial(text, ["x"])


def test_leading_zeros_do_not_count():
    text = "0" * 9000 + "3/" + "0" * 9000 + "2*x + " + "0" * 9000
    assert parse_polynomial(text, ["x"]) == parse_polynomial("3/2*x", ["x"])
