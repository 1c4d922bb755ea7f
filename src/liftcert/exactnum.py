"""Primality, the p-adic valuation of rationals, and their stored form.

An exact rational is stored as an int when it is integral and as a
Fraction otherwise (`rational`); the two compare, hash and print alike,
as "a" or "a/b", never decimals.  vp gives an int, w and its marginals
are exact rationals too, and None stands for +infinity, the valuation
of 0 and of the zero polynomial, which every certify path rejects.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigError


def rational(num, den=1):
    """num/den as it is stored: an int when den divides num, else a
    Fraction; a Fraction over 1 comes back as it is.  Anything but ints
    and Fractions raises TypeError, above all a float, whose value is
    already rounded (a stray true division); a zero den raises
    ZeroDivisionError."""
    if type(num) is int and type(den) is int and den:
        q, r = divmod(num, den)
        if not r:
            return q
    elif isinstance(num, float):
        raise TypeError(f"a float is not an exact rational: {num!r}")
    elif isinstance(num, Fraction) and type(den) is int and den == 1:
        return num.numerator if num.denominator == 1 else num
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


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


def vp(r, p: int) -> int | None:
    """The exponent of p in the int or Fraction r; None, the +infinity
    of the zero polynomial's content, for 0.

    p must be prime and is not checked here: the public entry points
    check it once, through check_prime.  Additive: vp(r*s) = vp(r) +
    vp(s).
    """
    if not r:
        return None
    num, den, k = abs(r.numerator), r.denominator, 0
    while num % p == 0:
        num //= p
        k += 1
    while den % p == 0:
        den //= p
        k -= 1
    return k
