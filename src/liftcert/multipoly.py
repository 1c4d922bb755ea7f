"""Sparse exact multivariate polynomials over the rationals.

A polynomial in n variables is a map from exponent vectors (tuples of n
nonnegative integers) to nonzero exact rational coefficients, each an
int when it is integral and a Fraction otherwise (`rational`).  The
module also provides the canonical phi-adic expansion

    f = sum_I  a_I * phi_1^{i_1} * ... * phi_n^{i_n}

with deg_{x_j}(a_I) < deg(phi_j): a linear phi_j = x_j - c is the
Taylor shift to c, after which each term's exponent of x_j is its digit
index; a phi_j of higher degree rewrites the coefficient lists in x_j
by repeated division, guarded by a work limit.  Both run on ints over
one common denominator, and `reconstruct`, the inverse, runs them
backwards.  Also the Gauss content valuation min_coeff vp(c), an int,
or None for the zero polynomial.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat

from .errors import DEFAULT_CANDIDATE_LIMIT, LiftcertError, ResourceLimitExceeded
from .exactnum import rational, vp


class VariableMismatch(LiftcertError):
    """Operands disagree on the number of variables."""


def grlex_key(exps):
    """Sort key for graded-lexicographic order (total degree, then lex)."""
    return (sum(exps), exps)


def monomial_factors(names, exps):
    """The printed factors of a monomial: name, or name^k for k > 1, for
    each variable with a positive exponent."""
    return [name if k == 1 else f"{name}^{k}"
            for name, k in zip(names, exps) if k]


def terms_to_str(terms, names) -> str:
    """Text of {exponents: int or Fraction}: graded-lex descending,
    explicit * and ^, "0" when empty."""
    parts = []
    for exps in sorted(terms, key=grlex_key, reverse=True):
        c = terms[exps]
        parts.append(" - " if c < 0 else " + ")
        c = abs(c)
        factors = monomial_factors(names, exps)
        parts.append("*".join(factors) if factors and c == 1
                     else "*".join([str(c)] + factors))
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients,
    stored as `rational` returns them: a float coefficient raises
    TypeError."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, c in terms.items():
                if type(c) is not int:
                    c = rational(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise VariableMismatch(
                        f"bad exponent vector {exps} for {nvars} variables"
                    )
                clean[exps] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def _of(cls, nvars, terms):
        """terms as they are, already canonical like phi_expand's digits."""
        f = object.__new__(cls)
        f.nvars, f.terms = nvars, terms
        return f

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def from_univariate(cls, nvars: int, i: int, coeffs) -> "MultiPoly":
        """Embed a univariate polynomial (coeffs low-to-high) in variable i."""
        return cls(nvars, {(0,) * i + (k,) + (0,) * (nvars - i - 1): c
                           for k, c in enumerate(coeffs)})

    # -- queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps):
        return self.terms.get(tuple(exps), 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def constant_value(self):
        if self.degree() > 0:
            raise ValueError("polynomial is not constant")
        return self.coeff((0,) * self.nvars)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise VariableMismatch(
                f"{self.nvars} variables vs {other.nvars} variables"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return MultiPoly(self.nvars, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MultiPoly(self.nvars, terms)

    def scale(self, c) -> "MultiPoly":
        c = rational(c)
        if not c:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def shift(self, i: int, a, limit=DEFAULT_CANDIDATE_LIMIT) -> "MultiPoly":
        """x_i -> x_i + a, on ints.  With a = u/v, D the common denominator
        of the coefficients and K the top degree in x_i, a term
        (n/D)*x_i^k adds n*comb(k, j)*u^(k-j)*v^(K-k+j) / (D*v^K) to
        x_i^j; each comb(k, j) comes from the one before it.

        The work is counted against limit before it starts
        (ResourceLimitExceeded, "Taylor shift work"): a term of degree k
        makes k + 1 updates, each counting 1 + b // 1024 for the b =
        k + bitlen(n) + bitlen(D/d) + (K - k)*bitlen(v) + k*bitlen(u)
        bits, d the term's own denominator, that bound its operands.  So
        the count grows with the square of the degree, as the work does,
        and an update of operands below 1,024 bits counts one, as a row
        operation of `_divide` does.
        """
        if a == 0 or not self.terms:
            return self
        u, v = a.numerator, a.denominator
        den = math.lcm(*[c.denominator for c in self.terms.values()])
        top = self.degree_in(i)
        ubits, vbits = abs(u).bit_length(), v.bit_length()
        needed = 0
        for exps, c in self.terms.items():
            k = exps[i]
            bits = (k + abs(c.numerator).bit_length()
                    + (den // c.denominator).bit_length()
                    + (top - k) * vbits + k * ubits)
            needed += (k + 1) * (1 + bits // 1024)
        if needed > limit:
            raise ResourceLimitExceeded("Taylor shift work", limit, needed)
        sums = {}
        for exps, c in self.terms.items():
            k, head, tail = exps[i], exps[:i], exps[i + 1:]
            binom = 1  # comb(k, j); power is n * v^(K - k) * u^(k - j)
            power = c.numerator * (den // c.denominator) * v ** (top - k)
            for j in range(k, -1, -1):
                e = head + (j,) + tail
                sums[e] = sums.get(e, 0) + binom * power
                power *= u
                binom = binom * j // (k - j + 1)
        den *= v ** top
        return MultiPoly._of(self.nvars, {
            e: s if den == 1 else rational(s * v ** e[i], den)
            for e, s in sums.items() if s})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- printing ------------------------------------------------------

    def to_str(self, names=None) -> str:
        """Canonical text form: graded-lex descending, explicit * and ^."""
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        return terms_to_str(self.terms, names)

    def __repr__(self):
        return f"MultiPoly({self.to_str()})"


# the unique representation f = sum_I a_I prod_j phi_j^{i_j}: phis are
# univariate coefficient lists, low-to-high; terms map I to the digit a_I
PhiExpansion = namedtuple("PhiExpansion", "nvars phis terms")


def _divide(terms, i: int, phi, limit, undo=False):
    """Rewrite {exps: coeff} so that an exponent k*m + r of x_i stands
    for x_i^r * phi^k, where phi is monic of degree m (undo: the inverse).

    Each coefficient list in x_i, one per vector of the other exponents,
    is divided by phi in place, from the top: afterwards the m entries
    from base are the remainder, i.e. the next digit, and the rest are
    the quotient, which the next pass divides.  A list of L entries takes
    L - m*k steps for its k-th digit (k = 1 .. L // m), each updating one
    entry per nonzero lower coefficient of phi (none for phi = x^m):
    quadratic in the degree.  These updates are counted over every list
    before any division, against limit (ResourceLimitExceeded).  Undo
    runs the steps in reverse order with the opposite sign; it keeps each
    list's length, so it counts the same work.  The entries are the
    numerators over one common denominator.
    """
    m = len(phi) - 1
    sign, order = (1, reversed) if undo else (-1, iter)
    lower = [(j, sign * (c.numerator if c.denominator == 1 else c))
             for j, c in enumerate(phi[:m]) if c]
    if not lower:
        return terms
    den = math.lcm(*[c.denominator for c in terms.values()])
    lists = {}
    for exps, c in terms.items():
        lists.setdefault(exps[:i] + (0,) + exps[i + 1:], {})[exps[i]] = c
    needed = 0
    for entries in lists.values():
        length = max(entries) + 1
        q = length // m
        needed += (q * length - m * q * (q + 1) // 2) * len(lower)
    if needed > limit:
        raise ResourceLimitExceeded("phi-adic division work", limit, needed)
    out = {}
    for key, entries in lists.items():
        coeffs = [0] * (max(entries) + 1)
        for e, c in entries.items():
            coeffs[e] = c.numerator * (den // c.denominator)
        for base in order(range(0, len(coeffs), m)):
            for d in order(range(len(coeffs) - 1, base + m - 1, -1)):
                lead = coeffs[d]
                if lead:
                    for j, pj in lower:
                        coeffs[d - m + j] += pj * lead
        for e, c in enumerate(coeffs):
            if c:
                out[key[:i] + (e,) + key[i + 1:]] = rational(c, den)
    return out


def phi_expand(f: MultiPoly, phis,
               limit=DEFAULT_CANDIDATE_LIMIT) -> PhiExpansion:
    """Expand f in base (phi_1, ..., phi_n), where phi_j is a monic
    univariate coefficient list (low-to-high) in x_j.  A linear phi_j =
    x_j - c is the Taylor shift x_j -> x_j + c, under limit; then each
    phi_j of degree m_j >= 2 rewrites the terms through `_divide`, under
    limit.
    An exponent k*m_j + r of x_j now stands for x_j^r * phi_j^k, and the
    digit at index I collects the terms whose exponents split into I.
    """
    n = f.nvars
    if len(phis) != n:
        raise VariableMismatch(f"{len(phis)} phis for {n} variables")
    for j, phi in enumerate(phis):
        if len(phi) < 2 or phi[-1] != 1:
            raise ValueError("each phi must be monic of degree >= 1")
        if len(phi) == 2 and phi[0]:
            f = f.shift(j, -phi[0], limit)
    terms = f.terms
    for j, phi in enumerate(phis):
        if len(phi) > 2:
            terms = _divide(terms, j, phi, limit)
    ms = [len(phi) - 1 for phi in phis]
    split, zero = any(m > 1 for m in ms), (0,) * n
    digits = {}
    for exps, c in terms.items():
        idx, rest = zip(*map(divmod, exps, ms)) if split else (exps, zero)
        digits.setdefault(idx, {})[rest] = c
    return PhiExpansion(n, phis, {idx: MultiPoly._of(n, digit)
                                  for idx, digit in digits.items()})


def reconstruct(expansion: PhiExpansion,
                limit=DEFAULT_CANDIDATE_LIMIT) -> MultiPoly:
    """sum_I a_I * prod_j phi_j^{i_j}, as phi_expand run backwards: a
    term x^r of a_I goes to the exponent i_j*m_j + r_j of each x_j (an
    r_j >= m_j raises ValueError), `_divide` undoes each inert division
    under limit, and a shift by -c, under limit, undoes each centre c."""
    n, phis = expansion.nvars, expansion.phis
    ms = [len(phi) - 1 for phi in phis]
    terms = {}
    for idx, digit in expansion.terms.items():
        for rest, c in digit.terms.items():
            if any(r >= m for r, m in zip(rest, ms)):
                raise ValueError(f"digit {idx} has degree >= deg(phi)")
            terms[tuple(k * m + r for k, m, r in zip(idx, ms, rest))] = c
    for j in reversed(range(n)):
        if ms[j] > 1:
            terms = _divide(terms, j, phis[j], limit, undo=True)
    f = MultiPoly(n, terms)
    for j, phi in enumerate(phis):
        if ms[j] == 1 and phi[0]:
            f = f.shift(j, phi[0], limit)
    return f


def content_valuation(f: MultiPoly, p: int):
    """Gauss content: min vp over coefficients, an int; None for zero."""
    return min(map(vp, f.terms.values(), repeat(p)), default=None)
