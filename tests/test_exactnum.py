"""Primality and p-adic valuations."""

import random
import time
from fractions import Fraction

import pytest

from liftcert import PairConfig, RationalCenter
from liftcert.errors import ConfigError
from liftcert.exactnum import PRIME_BOUND, check_prime, is_prime, rational, vp


class TestPrimes:
    def test_small_primes(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_not_prime(self):
        for n in (-2, 0, 1, 4, 9, 91):
            assert not is_prime(n)

    def test_check_prime_raises(self):
        with pytest.raises(ConfigError):
            check_prime(6)
        with pytest.raises(ConfigError):
            check_prime("3")

    def test_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(20000) if is_prime(n)] == [
            n for n in range(20000) if trial(n)]

    def test_strong_pseudoprimes_rejected(self):
        # 3215031751 = 151*751*28351 passes bases 2, 3, 5 and 7;
        # 3825123056546413051 passes 2..31; 318665857834031151167461 =
        # 399165290221*798330580441 passes 2..37
        for n in (3215031751, 3825123056546413051,
                  318665857834031151167461):
            assert not is_prime(n)
        assert is_prime(10 ** 12 + 39)
        assert is_prime(2 ** 61 - 1)

    def test_above_the_bound_raises(self):
        with pytest.raises(ValueError):
            is_prime(PRIME_BOUND)
        with pytest.raises(ConfigError, match="too large"):
            check_prime(PRIME_BOUND + 2)
        with pytest.raises(ConfigError, match="too large"):
            # a Mersenne prime above the bound
            PairConfig([RationalCenter(Fraction(0), Fraction(0))],
                       2 ** 89 - 1)

    def test_vp_at_a_large_prime_is_fast(self):
        p = 10 ** 12 + 39
        start = time.perf_counter()
        for k in range(100):
            assert vp(Fraction(p ** (k % 3) * 7, 11), p) == k % 3
        assert time.perf_counter() - start < 0.5


class TestVp:
    def test_examples(self):
        # [DERIVED] by hand: 12 = 2^2*3, 9/4 = 3^2/2^2
        assert vp(12, 2) == 2
        assert vp(12, 3) == 1
        assert vp(Fraction(9, 4), 2) == -2
        assert vp(Fraction(9, 4), 3) == 2
        assert vp(1, 5) == 0

    def test_paper_normalization(self):
        # the valuation of the prime itself is 1
        for p in (2, 3, 5, 7):
            assert vp(p, p) == 1

    def test_zero_is_infinite(self):
        assert vp(0, 3) is None

    def test_additive_random(self, rng):
        for p in (2, 3, 5, 7):
            for _ in range(1000):
                r = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
                s = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
                assert vp(r * s, p) == vp(r, p) + vp(s, p)

    def test_ultrametric_random(self, rng):
        for p in (2, 3, 5):
            for _ in range(500):
                r = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                s = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                # a zero among r, s and r + s holds vacuously: +infinity
                # on the left, or the other summand's value on both sides
                if r and s and r + s:
                    assert vp(r + s, p) >= min(vp(r, p), vp(s, p))


class TestRational:
    def test_stored_form(self):
        assert type(rational(6, 3)) is int and rational(6, 3) == 2
        assert rational(3, 6) == Fraction(1, 2)
        with pytest.raises(TypeError):
            rational(0.5)
        with pytest.raises(ZeroDivisionError):
            rational(1, 0)

    def test_fraction_comes_back_as_it_is(self):
        # a Fraction is already reduced: a non-integral one is returned
        # itself, an integral one as its numerator, with no new Fraction
        q = Fraction(-7, 3)
        assert rational(q) is q
        assert type(rational(Fraction(3))) is int
        assert rational(Fraction(3)) == 3
        assert rational(q, 7) == Fraction(-1, 3)
