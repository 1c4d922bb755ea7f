"""Exact rational arithmetic and p-adic valuation values.

Rationals are Python fractions: always reduced, denominator positive,
zero stored as 0/1.  They serialize as "a/b" or "a" (never decimals).
Valuation values (:class:`Val`) adjoin a single +infinity element so
that the valuation of zero has a home and min/+ behave ultrametrically.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigError

Rational = Fraction


# Miller-Rabin on the first 13 prime bases, 2..41, is exact below this
# bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017).  Bases 2..37 alone are fooled by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < PRIME_BOUND; larger
    n raise ValueError."""
    if n < 2:
        return False
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_BOUND}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if isinstance(p, int) and p >= PRIME_BOUND:
        raise ConfigError(
            f"p = {p} is too large: primality is decided only below "
            f"{PRIME_BOUND}")
    if not isinstance(p, int) or not is_prime(p):
        raise ConfigError(f"p must be a prime integer, got {p!r}")
    return p


class Val:
    """A valuation value: a rational or +infinity.

    Infinity + x = Infinity, min(Infinity, x) = x, and Infinity compares
    greater than every finite value.
    """

    __slots__ = ("_q",)

    def __init__(self, q):
        # q is a Fraction, or None for infinity; use finite()/INFINITY.
        self._q = q

    @classmethod
    def finite(cls, q) -> "Val":
        return cls(Fraction(q))

    @property
    def finite_value(self) -> Fraction:
        if self._q is None:
            raise ValueError("infinite valuation has no finite value")
        return self._q

    def __add__(self, other: "Val") -> "Val":
        if self._q is None or other._q is None:
            return INFINITY
        return Val(self._q + other._q)

    def __eq__(self, other) -> bool:
        return isinstance(other, Val) and self._q == other._q

    def __hash__(self):
        return hash(("Val", self._q))

    def __lt__(self, other: "Val") -> bool:
        if self._q is None:
            return False
        if other._q is None:
            return True
        return self._q < other._q

    def __le__(self, other: "Val") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Val") -> bool:
        return not self <= other

    def __ge__(self, other: "Val") -> bool:
        return not self < other

    def __repr__(self):
        return f"Val({self})"

    def __str__(self):
        return "inf" if self._q is None else str(self._q)


INFINITY = Val(None)


def val_min(*vals: Val) -> Val:
    best = INFINITY
    for v in vals:
        if v < best:
            best = v
    return best


def vp_int(n: int, p: int) -> Val:
    if n == 0:
        return INFINITY
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return Val.finite(k)


def vp(r, p: int) -> Val:
    """The exponent of the prime p in the rational r; Infinity for 0.

    Additive: vp(r*s) = vp(r) + vp(s).
    """
    check_prime(p)
    r = Fraction(r)
    if r == 0:
        return INFINITY
    num = vp_int(r.numerator, p).finite_value
    den = vp_int(r.denominator, p).finite_value
    return Val.finite(num - den)
