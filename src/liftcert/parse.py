"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insignificant):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nonneg-integer)?
    base   := rational | name | '(' expr ')'

Rationals are decimal-free: "a" or "a/b".  Variable names and their
order are supplied by the caller; the order fixes coordinate indices.
Parentheses nest at most MAX_NESTING deep, which keeps the descent well
inside Python's recursion limit.

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

import math
import re

from .errors import LiftcertError, ResourceLimitExceeded
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


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()])|(?P<bad>.))?", re.DOTALL
)


def _tokenize(text):
    """(kind, text, position) of each token, in one pass: every match
    but the last holds a token, and the last only whitespace."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # only whitespace is left
            return tokens
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))


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
    `rational` stores it.  The digits after each part's leading zeros
    are counted before any int is built: more than _MAX_DIGITS of them
    raise ResourceLimitExceeded, and check_coeff decides the numbers at
    the boundary once built.  A zero denominator raises
    ZeroDivisionError."""
    parts = [part.lstrip("0") or "0"
             for part in text.lstrip("+-").split("/")]
    digits = max(map(len, parts))
    if digits > _MAX_DIGITS:  # 10^(digits - 1) has more bits
        raise ResourceLimitExceeded("coefficient bits", MAX_COEFF_BITS,
                                    int((digits - 1) * math.log2(10)) + 1)
    number = rational(*map(int, parts))
    return check_coeff(-number if text.startswith("-") else number)


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


class _Parser:
    def __init__(self, tokens, variables, end):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.end = end
        self.variables = list(variables)
        self.nvars = len(self.variables)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def accept(self, ops):
        """Consume the next token and return its op if it is in ops."""
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in ops:
            self.i += 1
            return tok[1]
        return None

    def expect_op(self, op):
        if not self.accept(op):
            tok = self.peek()
            raise ParseError(f"expected {op!r}", tok[2] if tok else self.end)

    def parse_expr(self):
        terms = {}
        op = self.accept("-")
        while True:
            self.parse_term(terms, -1 if op == "-" else 1)
            op = self.accept("+-")
            if op is None:
                return MultiPoly._of(self.nvars, {
                    e: rational(c) for e, c in terms.items() if c})

    def parse_term(self, terms, sign):
        """Add sign times the next term into terms, {exponents:
        coefficient}; only parenthesised factors run MultiPoly
        arithmetic."""
        exps = [0] * self.nvars
        coeff = sign
        poly = None
        while True:
            factor = self.parse_factor(exps)
            if isinstance(factor, MultiPoly):
                poly = factor if poly is None else self.multiply(poly, factor)
            elif factor != 1:
                coeff = check_coeff(coeff * factor)
            if not self.accept("*"):
                break
        _check_size("degree", MAX_DEGREE, sum(exps))
        if poly is None:
            exps = tuple(exps)
            terms[exps] = check_coeff(terms.get(exps, 0) + coeff)
            return
        poly = self.multiply(poly, MultiPoly(self.nvars, {tuple(exps): coeff}))
        for e, c in poly.terms.items():
            terms[e] = check_coeff(terms.get(e, 0) + c)

    def parse_factor(self, exps):
        """The next factor with its exponent: a number, a MultiPoly, or,
        for a power of a variable, 1 once the power is added to exps."""
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end)
        kind, value, pos = tok
        if kind == "number":
            self.i += 1
            try:
                number = parse_number(value)
            except ZeroDivisionError as exc:
                raise ParseError(f"bad number: {exc}", pos) from None
            k = self.parse_exponent()
            if k > 1:  # number ** k has at least k * (bits - 1) bits
                _check_size("coefficient bits", MAX_COEFF_BITS,
                            k * (_bits(number) - 1))
            return number ** k
        if kind == "name":
            self.i += 1
            try:
                idx = self.variables.index(value)
            except ValueError:
                raise ParseError(f"unknown variable {value!r}", pos) from None
            exps[idx] += self.parse_exponent()
            return 1
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.i += 1
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            k = self.parse_exponent()
            return inner if k == 1 else self.power(inner, k)
        raise ParseError(f"unexpected token {value!r}", pos)

    def parse_exponent(self):
        """The exponent after '^', at most MAX_DEGREE; 1 without '^'."""
        if not self.accept("^"):
            return 1
        exp = self.peek()
        if exp is None or exp[0] != "number" or "/" in exp[1]:
            raise ParseError(
                "exponent must be a nonnegative integer",
                exp[2] if exp else self.end,
            )
        self.i += 1
        digits = exp[1].lstrip("0") or "0"
        if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
            raise ResourceLimitExceeded("degree", MAX_DEGREE, digits)
        return int(digits)

    def multiply(self, a, b):
        """a * b, after checking the degree, the number of term products
        and the coefficient sizes against the size limits; a product's
        own coefficients are checked where they are used."""
        _check_size("degree", MAX_DEGREE, a.degree() + b.degree())
        _check_size("term products", MAX_TERMS, len(a.terms) * len(b.terms))
        _check_size("coefficient bits", MAX_COEFF_BITS, _size(a) + _size(b))
        return a * b

    def power(self, base, k):
        """base ** k by repeated squaring, each product checked."""
        result = MultiPoly.constant(self.nvars, 1)
        while k:
            if k & 1:
                result = self.multiply(result, base)
            k >>= 1
            if k:
                base = self.multiply(base, base)
        return result


def parse_polynomial(text: str, variables) -> MultiPoly:
    """Parse an expression into an exact polynomial; variable order
    fixes the coordinate indices (first named variable is x_1)."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, variables, len(text))
    if parser.peek() is None:
        raise ParseError("empty expression", 0)
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected token {trailing[1]!r}", trailing[2])
    return result
