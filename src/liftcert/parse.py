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
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import LiftcertError
from .multipoly import MultiPoly

MAX_NESTING = 100


class ParseError(LiftcertError):
    """Syntax or name error, annotated with the 0-based input position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_TOKEN = re.compile(
    r"(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        for kind in ("number", "name", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind), pos))
                break
        pos = m.end()
    return tokens


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

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            raise ParseError(
                f"expected {op!r}", tok[2] if tok else self.end
            )
        return self.advance()

    def parse_expr(self):
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.advance()
            sign = -1
        result = self.parse_term().scale(sign)
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.advance()
                term = self.parse_term()
                result = result + term if tok[1] == "+" else result - term
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.advance()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self):
        base = self.parse_base()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.advance()
            exp = self.peek()
            if exp is None or exp[0] != "number" or "/" in exp[1]:
                raise ParseError(
                    "exponent must be a nonnegative integer",
                    exp[2] if exp else self.end,
                )
            self.advance()
            return base ** int(exp[1])
        return base

    def parse_base(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end)
        kind, value, pos = tok
        if kind == "number":
            self.advance()
            return MultiPoly.constant(self.nvars, Fraction(value))
        if kind == "name":
            self.advance()
            try:
                idx = self.variables.index(value)
            except ValueError:
                raise ParseError(f"unknown variable {value!r}", pos) from None
            return MultiPoly.variable(self.nvars, idx)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


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
