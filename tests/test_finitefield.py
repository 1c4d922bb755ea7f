"""Residue fields: univariate irreducibility, the composite field, and
the exhaustive divisor search for residue polynomials."""

import itertools
import random

import pytest

from liftcert import (
    ResidueField,
    ResiduePoly,
    is_irreducible_multivariate,
    is_irreducible_univariate,
)
from liftcert.errors import ConfigError, ResourceLimitExceeded
from liftcert.finitefield import (
    DegreesNotCoprime,
    GeneratorReducible,
    fp_divmod,
    fp_normalize,
)


def _count_irreducibles(p, d):
    count = 0
    for lower in itertools.product(range(p), repeat=d):
        if is_irreducible_univariate(lower + (1,), p):
            count += 1
    return count


class TestUnivariate:
    def test_fp_basics(self):
        assert fp_normalize([3, 6, 9], 3) == ()
        q, r = fp_divmod((1, 0, 1), (1, 1), 2)
        assert q == (1, 1) and r == ()

    def test_examples(self):
        # [DERIVED] x^2+1 factors mod 2 ((x+1)^2) but not mod 3
        assert not is_irreducible_univariate((1, 0, 1), 2)
        assert is_irreducible_univariate((1, 0, 1), 3)
        # [DERIVED] x^2+x+1 is the unique irreducible quadratic mod 2
        assert is_irreducible_univariate((1, 1, 1), 2)
        assert is_irreducible_univariate((1, 1), 5)  # linear

    def test_counts_match_necklace_formula(self):
        # number of monic irreducibles of degree d over F_p:
        # (1/d) sum_{k|d} mu(k) p^(d/k)
        expected = {
            (2, 1): 2, (2, 2): 1, (2, 3): 2, (2, 4): 3,
            (3, 1): 3, (3, 2): 3, (3, 3): 8, (3, 4): 18,
        }
        for (p, d), n in expected.items():
            assert _count_irreducibles(p, d) == n

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            is_irreducible_univariate((1, 2), 3)

    def test_guard(self):
        g = tuple([1] * 20 + [1])
        with pytest.raises(ResourceLimitExceeded):
            is_irreducible_univariate(g, 5, limit=100)


class TestResidueField:
    def test_prime_field(self):
        f3 = ResidueField(3, [])
        assert f3.q == 3
        assert f3.from_int(5) == f3.from_int(2)
        assert (f3.from_int(2) * f3.from_int(2)) == f3.from_int(1)

    def test_f4(self):
        f4 = ResidueField(2, [(1, 1, 1)])  # y^2 + y + 1
        assert f4.q == 4
        y = f4.element({(1,): 1})
        assert y * y == f4.element({(0,): 1, (1,): 1})  # y^2 = y + 1
        assert len(list(f4.elements())) == 4

    def test_f64_composite(self):
        # coprime degrees 2 and 3 give the degree-6 extension
        f64 = ResidueField(2, [(1, 1, 1), (1, 1, 0, 1)])
        assert f64.q == 64
        assert f64.extension_degree == 6

    def test_reducible_generator_rejected(self):
        with pytest.raises(GeneratorReducible):
            ResidueField(2, [(1, 0, 1)])  # x^2+1 = (x+1)^2 mod 2

    def test_non_coprime_degrees_rejected(self):
        with pytest.raises(DegreesNotCoprime):
            ResidueField(2, [(1, 1, 1), (1, 1, 0, 0, 1)])  # degrees 2, 4

    def test_degree_one_generator_rejected(self):
        with pytest.raises(ConfigError):
            ResidueField(3, [(1, 1)])

    def test_non_prime_rejected(self):
        with pytest.raises(ConfigError):
            ResidueField(4, [])

    def test_inverse_samples(self):
        rng = random.Random(11)
        for field in (
            ResidueField(3, []),
            ResidueField(2, [(1, 1, 1)]),
            ResidueField(3, [(1, 0, 1)]),
        ):
            elems = [e for e in field.elements() if not e.is_zero]
            for _ in range(200):
                a = rng.choice(elems)
                assert a * a.inverse() == field.one

    def test_field_axioms_sampled(self):
        f9 = ResidueField(3, [(1, 0, 1)])
        elems = list(f9.elements())
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            ResidueField(3, []).zero.inverse()


def _poly(field, terms):
    return ResiduePoly(
        field, 2, {e: field.from_int(c) for e, c in terms.items()}
    )


class TestMultivariateIrreducibility:
    def test_worked_residue(self):
        # [PAPER-adjacent] Y^2 Z^2 + 1 is irreducible over F_3
        f3 = ResidueField(3, [])
        t = _poly(f3, {(2, 2): 1, (0, 0): 1})
        assert is_irreducible_multivariate(t)

    def test_square_shift_factors(self):
        # Y^2 Z^2 + 2 = Y^2 Z^2 - 1 = (YZ+1)(YZ-1) over F_3
        f3 = ResidueField(3, [])
        t = _poly(f3, {(2, 2): 1, (0, 0): 2})
        assert not is_irreducible_multivariate(t)

    def test_linear(self):
        f3 = ResidueField(3, [])
        t = _poly(f3, {(1, 0): 1, (0, 1): 1})  # Y + Z
        assert is_irreducible_multivariate(t)

    def test_products_detected(self, rng):
        f3 = ResidueField(3, [])
        elems = list(f3.elements())
        for _ in range(50):
            g = _poly(f3, {(1, 0): 1, (0, 0): rng.randint(0, 2)})
            h = _poly(
                f3,
                {
                    (0, 1): 1,
                    (1, 0): rng.randint(0, 2),
                    (0, 0): rng.randint(0, 2),
                },
            )
            assert not is_irreducible_multivariate(g * h)

    def test_extension_coefficients(self):
        # Z1*Z2 + y1 over F_9: no linear factor can produce the mixed term
        f9 = ResidueField(3, [(1, 0, 1)])
        y = f9.element({(1,): 1})
        t = ResiduePoly(f9, 2, {(1, 1): f9.one, (0, 0): y})
        assert is_irreducible_multivariate(t)

    def test_univariate_special_case(self):
        f5 = ResidueField(5, [])
        # [DERIVED] z^2 + 2 has no root mod 5 (squares are 0,1,4)
        t = ResiduePoly(f5, 1, {(2,): f5.one, (0,): f5.from_int(2)})
        assert is_irreducible_multivariate(t)
        # z^2 - 1 factors
        t2 = ResiduePoly(f5, 1, {(2,): f5.one, (0,): f5.from_int(4)})
        assert not is_irreducible_multivariate(t2)

    def test_extension_field_above_1024(self):
        # F_1369 = F_37[y]/(y^2+2): y is not a square in F_1369 (its norm
        # 2 is not a square mod 37), y^2 is
        f = ResidueField(37, [(2, 0, 1)])
        assert f.q == 1369
        y = f.element({(1,): 1})
        assert is_irreducible_multivariate(
            ResiduePoly(f, 1, {(2,): f.one, (0,): -y}))
        assert not is_irreducible_multivariate(
            ResiduePoly(f, 1, {(2,): f.one, (0,): -(y * y)}))

    @pytest.mark.parametrize("p,gens", [(5, []), (3, [(1, 0, 1)])],
                             ids=["F_5", "F_9"])
    def test_computed_and_stored_tables_agree(self, p, gens):
        # a quadratic's count (q candidates) is below q^2, so its search
        # computes each table entry on lookup; the quartic's count
        # (q + q^2) builds the stored tables, which the field then keeps
        field = ResidueField(p, gens)
        q = field.q
        elems = list(field.elements())
        quads = [
            ResiduePoly(field, 1, {(2,): field.one, (1,): b, (0,): c})
            for b in elems for c in elems
        ]
        computed = [is_irreducible_multivariate(t) for t in quads]
        assert field._encoded is None
        assert sum(computed) == (q * q - q) // 2  # monic irreducibles
        is_irreducible_multivariate(
            ResiduePoly(field, 1, {(4,): field.one, (0,): field.one}))
        assert field._encoded is not None
        assert [is_irreducible_multivariate(t) for t in quads] == computed

    def test_large_prime_field_builds_no_tables(self):
        f = ResidueField(1021, [])
        t = ResiduePoly(f, 1, {(2,): f.one, (0,): f.from_int(2)})
        assert is_irreducible_multivariate(t)  # 2 is not a square mod 1021
        assert f._encoded is None

    def test_guard(self):
        f5 = ResidueField(5, [])
        t = _poly(f5, {(4, 4): 1, (0, 0): 2})
        with pytest.raises(ResourceLimitExceeded):
            is_irreducible_multivariate(t, limit=10)

    def test_rejects_constant(self):
        f3 = ResidueField(3, [])
        with pytest.raises(ValueError):
            is_irreducible_multivariate(_poly(f3, {(0, 0): 1}))

    def test_random_products_always_reducible(self, rng):
        fields = [ResidueField(2, []), ResidueField(3, []),
                  ResidueField(2, [(1, 1, 1)])]
        for _ in range(60):
            field = rng.choice(fields)
            elems = [e for e in field.elements() if not e.is_zero]

            def rand_factor():
                terms = {
                    (rng.randint(0, 1), rng.randint(0, 1)): rng.choice(elems)
                }
                terms[(1, 1)] = field.one
                return ResiduePoly(field, 2, terms)

            prod = rand_factor() * rand_factor()
            assert not is_irreducible_multivariate(prod)
