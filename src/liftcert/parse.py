"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insignificant):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nonneg-integer)?
    base   := rational | name | '(' expr ')'

Rationals are decimal-free: "a" or "a/b", in the ASCII digits 0-9
only.  Variable names and their order are supplied by the caller; the
order fixes coordinate indices.  A repeated name raises ConfigError, and
so does a name outside [A-Za-z_][A-Za-z_0-9]*, which no token spells.

One regular-expression pass splits the text into plain token strings.
One loop per expression then reads them, with the index, the tokens and
a name-to-index dict in locals; only a parenthesised factor recurses,
and parentheses nest at most MAX_NESTING deep, which keeps the descent
well inside Python's recursion limit.  Tokens carry no positions: a
ParseError finds the position of the token it names by tokenising
again.  A character that starts no token is reported first, wherever
it stands, as if the text were checked before it is parsed.

A term made of numbers and powers of variables is built directly as an
exponent tuple and a coefficient (an int, or a Fraction once an "a/b"
literal appears), and the terms of an expression are summed into one
dict, handed to MultiPoly in `rational`'s form; MultiPoly arithmetic
runs only for parenthesised factors and their powers.  Size is checked
before any arithmetic: an exponent, a term's degree or a product's
degree above MAX_DEGREE, or a multiplication that would form more than
MAX_TERMS term products, raises ResourceLimitExceeded.  So does a
coefficient above MAX_COEFF_BITS bits (of its numerator or denominator):
a literal's digits are counted before it is converted (parse_number,
which pair and residue files share), a number's power is checked before
it is taken, and every coefficient product, sum and multiplication after
it, so every coefficient returned prints within Python's default
4,300-digit limit on int-to-string conversion.
"""

from __future__ import annotations

import itertools
import math
import re

from .errors import ConfigError, LiftcertError, ResourceLimitExceeded
from .exactnum import rational
from .multipoly import MultiPoly

MAX_NESTING = 100
MAX_DEGREE = 100_000  # of any exponent, term or product
MAX_TERMS = 100_000  # term products formed by one multiplication
MAX_COEFF_BITS = 14_000  # at most 4,215 decimal digits
# a number with more decimal digits has more than MAX_COEFF_BITS bits
_MAX_DIGITS = math.ceil(MAX_COEFF_BITS * math.log10(2))


class ParseError(LiftcertError):
    """Syntax or name error, annotated with the 0-based input position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# one token per match; findall skips the whitespace between them, and
# \S takes a stray character as a token of its own
_TOKEN = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*^()]|\S")
# the first character of a stray token
_STRAY = re.compile(r"[^0-9A-Za-z_()*^+-]")


def _position(text, k):
    """Where token k starts in text, or the end of text past the last
    token."""
    for m in itertools.islice(_TOKEN.finditer(text), k, None):
        return m.start()
    return len(text)


def _check_size(name, bound, needed):
    if needed > bound:
        raise ResourceLimitExceeded(name, bound, needed)


def _bits(c):
    """Bit length of an int's or a Fraction's larger part."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def check_coeff(c):
    _check_size("coefficient bits", MAX_COEFF_BITS, _bits(c))
    return c


def parse_number(text):
    """The number written "a" or "a/b" with an optional sign, as
    `rational` stores it.  A part of fewer than _MAX_DIGITS characters
    has fewer bits than MAX_COEFF_BITS, so it is converted at once;
    otherwise the digits after each part's leading zeros are counted
    before any int is built: more than _MAX_DIGITS of them raise
    ResourceLimitExceeded, and check_coeff decides the numbers at the
    boundary once built.  A zero denominator raises ZeroDivisionError."""
    num, _, den = text.lstrip("+-").partition("/")
    if len(num) < _MAX_DIGITS > len(den):
        number = rational(int(num), int(den)) if den else int(num)
    else:
        parts = [part.lstrip("0") or "0" for part in (num, den or "1")]
        digits = max(map(len, parts))
        if digits > _MAX_DIGITS:  # 10^(digits - 1) has more bits
            raise ResourceLimitExceeded(
                "coefficient bits", MAX_COEFF_BITS,
                int((digits - 1) * math.log2(10)) + 1)
        number = check_coeff(rational(*map(int, parts)))
    return -number if text.startswith("-") else number


def check_coeffs(poly):
    """Return poly after checking each coefficient against MAX_COEFF_BITS
    (ResourceLimitExceeded above it), so that it prints within the
    int-to-string limit; for polynomials the parser never saw, such as
    recentred digits and generated liftings."""
    for c in poly.terms.values():
        check_coeff(c)
    return poly


def _size(poly):
    """Bits of poly's largest numerator and of its denominators above 1,
    which bound the coefficients of its products."""
    cs = poly.terms.values()
    return max((c.numerator.bit_length() for c in cs), default=0) + sum(
        c.denominator.bit_length() for c in cs if c.denominator > 1)


def _multiply(a, b):
    """a * b, after checking the degree, the number of term products and
    the coefficient sizes against the size limits; a product's own
    coefficients are checked where they are used."""
    _check_size("degree", MAX_DEGREE, a.degree() + b.degree())
    _check_size("term products", MAX_TERMS, len(a.terms) * len(b.terms))
    _check_size("coefficient bits", MAX_COEFF_BITS, _size(a) + _size(b))
    return a * b


def _power(base, k):
    """base ** k by repeated squaring, each product checked."""
    result = MultiPoly.constant(base.nvars, 1)
    while k:
        if k & 1:
            result = _multiply(result, base)
        k >>= 1
        if k:
            base = _multiply(base, base)
    return result


def _expression(text, tokens, i, slots, n, depth):
    """The expression that starts at token i, and the index of the token
    after it.  tokens ends with "", which no rule accepts.  One loop reads
    the factors: a term's numbers and powers of variables go straight
    into its coefficient and exponents, and only a parenthesised factor
    recurses and runs MultiPoly arithmetic.  slots maps each variable
    name to its index among the n variables."""
    terms = {}
    exps, coeff, poly = [0] * n, 1, None
    if tokens[i] == "-":
        coeff = -1
        i += 1
    while True:
        tok = tokens[i]
        i += 1
        slot = slots.get(tok)
        if slot is not None:
            pass  # a variable: its power goes into exps below
        elif "0" <= tok[:1] <= "9":
            try:
                base = parse_number(tok)
            except ZeroDivisionError as exc:
                raise ParseError(f"bad number: {exc}",
                                 _position(text, i - 1)) from None
        elif tok == "(":
            if depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_NESTING}", _position(text, i - 1))
            base, i = _expression(text, tokens, i, slots, n, depth + 1)
            if tokens[i] != ")":
                raise ParseError("expected ')'", _position(text, i))
            i += 1
        elif not tok:
            raise ParseError("unexpected end of input", len(text))
        elif tok.isidentifier():
            raise ParseError(f"unknown variable {tok!r}",
                             _position(text, i - 1))
        else:
            raise ParseError(f"unexpected token {tok!r}",
                             _position(text, i - 1))
        k = 1
        if tokens[i] == "^":  # a nonnegative integer, at most MAX_DEGREE
            digits = tokens[i + 1]
            if not (digits.isascii() and digits.isdigit()):
                raise ParseError("exponent must be a nonnegative integer",
                                 _position(text, i + 1))
            i += 2
            digits = digits.lstrip("0") or "0"
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise ResourceLimitExceeded("degree", MAX_DEGREE, digits)
            k = int(digits)
        if slot is not None:
            exps[slot] += k
        elif tok == "(":
            if k != 1:
                base = _power(base, k)
            poly = base if poly is None else _multiply(poly, base)
        else:
            if k != 1:  # base ** k has at least k * (bits - 1) bits
                _check_size("coefficient bits", MAX_COEFF_BITS,
                            k * (_bits(base) - 1))
                base = check_coeff(base ** k)
            # base is checked, and so is coeff * base while coeff is +-1
            coeff = (coeff * base if coeff == 1 or coeff == -1
                     else check_coeff(coeff * base))
        if tokens[i] == "*":
            i += 1
            continue
        _check_size("degree", MAX_DEGREE, sum(exps))
        if poly is None:  # coeff is checked already
            exps = tuple(exps)
            old = terms.get(exps)
            terms[exps] = coeff if old is None else check_coeff(old + coeff)
        else:
            poly = _multiply(poly, MultiPoly(n, {tuple(exps): coeff}))
            for e, c in poly.terms.items():
                terms[e] = check_coeff(terms.get(e, 0) + c)
        op = tokens[i]
        if op != "+" and op != "-":
            return MultiPoly._of(n, {
                e: c if type(c) is int else rational(c)
                for e, c in terms.items() if c}), i
        i += 1
        exps, coeff, poly = [0] * n, -1 if op == "-" else 1, None


def parse_polynomial(text: str, variables) -> MultiPoly:
    """Parse an expression into an exact polynomial; variable order
    fixes the coordinate indices (first named variable is x_1).  A
    repeated variable name, or one that no token spells, such as "3",
    raises ConfigError."""
    variables = list(variables)
    if len(set(variables)) != len(variables):
        raise ConfigError(f"variable names must be distinct, got {variables}")
    for name in variables:
        if not (name.isascii() and name.isidentifier()):
            raise ConfigError(f"variable name {name!r} is not of the form "
                              "[A-Za-z_][A-Za-z_0-9]*")
    slots = {name: k for k, name in enumerate(variables)}
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    tokens.append("")
    try:
        result, i = _expression(text, tokens, 0, slots, len(variables), 0)
        if tokens[i]:
            raise ParseError(f"unexpected token {tokens[i]!r}",
                             _position(text, i))
        return result
    except LiftcertError:
        # a stray character is reported first, wherever it stands
        for m in _TOKEN.finditer(text):
            if _STRAY.match(m[0]):
                raise ParseError(f"unexpected character {m[0]!r}",
                                 m.start()) from None
        raise
