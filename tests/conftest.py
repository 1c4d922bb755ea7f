"""Shared fixtures and helpers for the test suite."""

import itertools
import random
from fractions import Fraction

import pytest

from liftcert import (
    Inert,
    MultiPoly,
    PairConfig,
    RationalCenter,
    ResiduePoly,
    parse_polynomial,
)


def P(text, names=("x", "y")):
    """Shorthand: parse an expression with the given variable order."""
    return parse_polynomial(text, list(names))


def gauss_config(p, n):
    """The all-Gauss configuration: every pair is (center 0, delta 0)."""
    return PairConfig([RationalCenter(Fraction(0), Fraction(0))] * n, p)


def rc_config(p, deltas):
    """Rational centers at 0 with the given deltas."""
    return PairConfig(
        [RationalCenter(Fraction(0), Fraction(d)) for d in deltas], p
    )


# two variables each: all-Gauss, shifted centres with ramified deltas,
# and an inert pair before and after a shifted centre
SPLIT_CONFIGS = [
    ("gauss", gauss_config(3, 2)),
    ("shifted-ramified", PairConfig(
        [RationalCenter(Fraction(1), Fraction(1, 2)),
         RationalCenter(Fraction(-1, 2), Fraction(2, 3))], 5)),
    ("inert-then-shifted", PairConfig(
        [Inert((1, 0, 1), Fraction(1, 2)),
         RationalCenter(Fraction(2, 5), Fraction(1))], 3)),
    ("shifted-then-inert", PairConfig(
        [RationalCenter(Fraction(-1), Fraction(1, 3)),
         Inert((1, 1, 1), Fraction(1, 2))], 2)),
]


def liftable_residue(rng, config):
    """A random monic T of degree t_i in {1, 2} in each Z_i that has a
    lifting: not a coordinate Z_i, and free of an inert variable's
    generator wherever it reaches that variable's full degree."""
    field, pairs = config.field, config.pairs
    while True:
        t = tuple(rng.randint(1, 2) for _ in pairs)
        terms = {t: field.one}
        for exps in itertools.product(*(range(ti + 1) for ti in t)):
            if exps == t or rng.random() < 0.4:
                continue
            full = any(pair.y_index is not None and j == ti
                       for pair, j, ti in zip(pairs, exps, t))
            if full:
                terms[exps] = field.from_int(rng.randrange(field.p))
            else:
                terms[exps] = field.element({
                    y: rng.randrange(field.p)
                    for y in itertools.product(range(3), repeat=field.nyvars)})
        T = ResiduePoly(field, len(pairs), terms)
        if not any(T.is_single_variable(i) for i in range(len(pairs))):
            return T, t


def random_poly(rng, nvars, max_deg, max_terms=6, coeff_bound=9,
                allow_fractions=False):
    """A random nonzero sparse polynomial with small integer (or
    rational) coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
            num = rng.randint(-coeff_bound, coeff_bound)
            if allow_fractions:
                c = Fraction(num, rng.randint(1, 4))
            else:
                c = Fraction(num)
            if c:
                terms[exps] = terms.get(exps, Fraction(0)) + c
        f = MultiPoly(nvars, terms)
        if not f.is_zero:
            return f


@pytest.fixture
def rng():
    return random.Random(20260823)
