"""Residue fields: univariate irreducibility and factorisation, the
composite field, and the routes that decide residue polynomials: the
reducibility witnesses, the specialisation and lifting route and
Kronecker's substitution, each checked against an unpruned enumeration
of candidate divisors."""

import collections
import gc
import itertools
import random
import time
import tracemalloc
import weakref

import pytest

from liftcert import finitefield
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
    ResidueElement,
    fp_normalize,
)


def _count_irreducibles(p, d):
    count = 0
    for lower in itertools.product(range(p), repeat=d):
        if is_irreducible_univariate(lower + (1,), p):
            count += 1
    return count


def _monic_polys(p, d):
    """Every monic polynomial of degree d over F_p, low to high."""
    return [lower + (1,) for lower in itertools.product(range(p), repeat=d)]


def _times(a, b, p):
    """a * b mod p by schoolbook multiplication of coefficient tuples."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return tuple(prod)


class TestUnivariate:
    def test_fp_basics(self):
        assert fp_normalize([3, 6, 9], 3) == ()

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

    @pytest.mark.parametrize("p, top", [(2, 8), (3, 6), (5, 4)])
    def test_each_polynomial_matches_products(self, p, top):
        # a monic f is reducible exactly when it is a product of two monic
        # polynomials of positive degree; this checks every f, so errors
        # that cancel out in the necklace counts show too
        for d in range(1, top + 1):
            products = {_times(a, b, p)
                        for k in range(1, d // 2 + 1)
                        for a in _monic_polys(p, k)
                        for b in _monic_polys(p, d - k)}
            # the squares g^2 with deg g = d/2: for an irreducible g only
            # the loop's last step, k = d/2, finds their factor
            squares = ({_times(g, g, p) for g in _monic_polys(p, d // 2)}
                       if d % 2 == 0 else set())
            assert squares <= products
            for f in _monic_polys(p, d):
                assert is_irreducible_univariate(f, p) == (
                    f not in products), (p, f)

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            is_irreducible_univariate((1, 2), 3)

    def test_guard(self):
        # the guard counts d^3 * bitlen(q), the work of Rabin's test and a
        # bound on Ben-Or's, before any of it
        g = tuple([1] * 20 + [1])
        with pytest.raises(ResourceLimitExceeded) as exc:
            is_irreducible_univariate(g, 5, limit=100)
        assert exc.value.bound_name == "univariate Rabin work"
        assert exc.value.needed == 20 ** 3 * 3


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

    def test_elements_in_digit_order_and_lazy(self):
        # the k-th element's coefficients on 1, y2, y2^2, y1, y1*y2,
        # y1*y2^2 are k's base-p digits, most significant first; a field
        # of about 10^18 elements yields its first ones at once
        f64 = ResidueField(2, [(1, 1, 1), (1, 1, 0, 1)])
        elems = list(f64.elements())
        assert len(set(elems)) == 64
        assert elems == [f64.element_at(k) for k in range(64)]
        assert elems[1] == f64.element({(1, 2): 1})
        assert elems[32] == f64.one
        big = ResidueField(10 ** 9 + 7, [(1, 0, 1)])
        y = big.element({(1,): 1})
        first = list(itertools.islice(big.elements(), 3))
        assert first == [big.zero, y, y + y]
        assert big.element_at(big.q - 1) == big.element(
            {(0,): -1, (1,): -1})

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

    @pytest.mark.parametrize("p,gens", [(2, [(1, 1, 1)]), (3, [(1, 0, 1)])],
                             ids=["F4", "F9"])
    def test_sub_is_add_of_negative(self, p, gens):
        elems = list(ResidueField(p, gens).elements())
        for a, b in itertools.product(elems, repeat=2):
            diff = a - b
            assert diff == a + (-b)
            assert 0 not in diff.coeffs.values()

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            ResidueField(3, []).zero.inverse()

    def test_equal_residues_hash_equal_in_any_term_order(self):
        # the hash is kept after its first use; equal residues built with
        # their terms, and their coefficients' monomials, in other orders
        # hash equal, and so does the same residue built as a product
        # (Z1 + 1 + y)(Z2 + 2y) over F_9 = F_3[y]/(y^2 + 1)
        f9 = ResidueField(3, [(1, 0, 1)])
        terms = {(1, 1): f9.one, (1, 0): f9.element({(1,): 2}),
                 (0, 1): f9.element({(0,): 1, (1,): 1}),
                 (0, 0): f9.element({(0,): 1, (1,): 2})}
        a = ResiduePoly(f9, 2, terms)
        hash(a)
        backwards = {e: ResidueElement(f9, dict(reversed(c.coeffs.items())))
                     for e, c in reversed(terms.items())}
        b = ResiduePoly(f9, 2, backwards)
        product = (ResiduePoly(f9, 2, {(1, 0): f9.one, (0, 0): terms[0, 1]})
                   * ResiduePoly(f9, 2, {(0, 1): f9.one, (0, 0): terms[1, 0]}))
        for other in (b, product):
            assert other == a and hash(other) == hash(a)
        assert {a: 1}[product] == 1


def _poly(field, terms):
    return ResiduePoly(field, len(next(iter(terms))),
                       {e: field.from_int(c) for e, c in terms.items()})


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

    @pytest.mark.parametrize("p,gens,nvars,counts", [
        (2, [(1, 1, 1)], 1, {1: 4, 2: 6, 3: 20, 4: 60}),
        (3, [(1, 0, 1)], 2, {1: 9, 2: 36, 3: 240}),
    ], ids=["F_4", "F_9-in-Z2"])
    def test_one_variable_counts_match_necklace_formula(
            self, p, gens, nvars, counts):
        # (1/d) sum_{k|d} mu(k) q^(d/k) monic irreducibles of degree d
        # over F_q, with T in the last of nvars variables
        field = ResidueField(p, gens)
        elems = list(field.elements())
        for d, n in counts.items():
            found = 0
            for lower in itertools.product(elems, repeat=d):
                terms = {(0,) * (nvars - 1) + (k,): c
                         for k, c in enumerate(lower)}
                terms[(0,) * (nvars - 1) + (d,)] = field.one
                found += is_irreducible_multivariate(
                    ResiduePoly(field, nvars, terms))
            assert found == n, d

    def test_one_variable_never_reaches_the_search(self, monkeypatch):
        # Ben-Or's test decides a T with positive degree in one variable:
        # neither the specialisation route nor Kronecker's substitution
        # runs, for Z^30 + Z + 2 over F_3 as for the quadratics
        def refuse(*args):
            raise AssertionError("the multivariate decision ran")

        for name in ("kronecker_route", "lifting_route"):
            monkeypatch.setattr(finitefield, name, refuse)
        f3 = ResidueField(3, [])
        two = f3.from_int(2)
        t = ResiduePoly(f3, 1, {(30,): f3.one, (1,): f3.one, (0,): two})
        assert is_irreducible_multivariate(t)
        t = ResiduePoly(f3, 2, {(0, 2): two, (0, 0): two})  # 2(Z2^2 + 1)
        assert is_irreducible_multivariate(t)
        t = ResiduePoly(f3, 2, {(2, 0): f3.one, (0, 0): two})  # Z1^2 - 1
        assert not is_irreducible_multivariate(t)
        with pytest.raises(ResourceLimitExceeded) as exc:
            is_irreducible_multivariate(
                ResiduePoly(f3, 1, {(1000,): f3.one, (0,): f3.one}))
        assert exc.value.bound_name == "univariate Rabin work"

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

    def test_mid_size_extension_search_stays_small(self):
        # F_961 = F_31[y]/(y^2 - 3), 3 not a square mod 31.  Z^4 - 9 =
        # (Z - y)(Z + y)(Z^2 + 3) has no witness, and Kronecker's route
        # factors it with a peak far below the 14 MB that add and mul
        # tables of q^2 entries each would take
        f = ResidueField(31, [(-3, 0, 1)])
        assert f.q == 961
        t = ResiduePoly(f, 1, {(4,): f.one, (0,): f.from_int(-9)})
        tracemalloc.start()
        try:
            assert not _fallback(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    @pytest.mark.parametrize("p,gens", [(5, []), (3, [(1, 0, 1)])],
                             ids=["F_5", "F_9"])
    def test_computed_and_stored_tables_agree(self, p, gens):
        # every monic quadratic, decided again after a quartic search
        # over the same field: the answers count the monic irreducibles
        # and do not depend on what was searched before
        field = ResidueField(p, gens)
        q = field.q
        elems = list(field.elements())
        quads = [
            ResiduePoly(field, 1, {(2,): field.one, (1,): b, (0,): c})
            for b in elems for c in elems
        ]
        computed = [is_irreducible_multivariate(t) for t in quads]
        assert sum(computed) == (q * q - q) // 2  # monic irreducibles
        is_irreducible_multivariate(
            ResiduePoly(field, 1, {(4,): field.one, (0,): field.one}))
        assert [is_irreducible_multivariate(t) for t in quads] == computed

    def test_large_prime_field_builds_no_tables(self):
        f = ResidueField(1021, [])
        t = ResiduePoly(f, 1, {(2,): f.one, (0,): f.from_int(2)})
        assert is_irreducible_multivariate(t)  # 2 is not a square mod 1021

    def test_guard(self):
        # Z1^2 Z2^2 Z3^2 + Z1 Z2 Z3 + 1 over F_2 has no monomial factor
        # and is no square, the content witness takes two variables only,
        # a budget of 10 pays no Ben-Or test of the specialisation route,
        # and Kronecker's image has degree 2 + 2*3 + 2*9 = 26, so no route
        # decides it within the limit
        f2 = ResidueField(2, [])
        one = f2.one
        t = ResiduePoly(f2, 3, {(2, 2, 2): one, (1, 1, 1): one, (0, 0, 0): one})
        with pytest.raises(ResourceLimitExceeded) as exc:
            is_irreducible_multivariate(t, limit=10)
        assert exc.value.bound_name == "univariate Rabin work"
        assert exc.value.needed == 26 ** 3 * 2

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


def _quotient(g, t):
    """T / g as {exponents: element}, by lex leading-term reduction in
    element arithmetic, or None when g does not divide T."""
    lead = max(g)
    inv = g[lead].inverse()
    zero = t.field.zero
    r, quo = dict(t.terms), {}
    while r:
        top = max(r)
        shift = tuple(a - b for a, b in zip(top, lead))
        if min(shift) < 0:
            return None
        c = quo[shift] = r[top] * inv
        for e, gc in g.items():
            k = tuple(a + b for a, b in zip(shift, e))
            v = r.get(k, zero) - c * gc
            if v.is_zero:
                r.pop(k, None)
            else:
                r[k] = v
    return quo


def _divides(g, t):
    """Whether g divides T."""
    return _quotient(g, t) is not None


def _assert_proper_factor(t, a):
    """A and T/A are not constant, and A * (T/A) = T."""
    quo = _quotient(a.terms, t)
    assert quo is not None
    assert a.degree() >= 1 and max(map(sum, quo)) >= 1
    assert a * ResiduePoly(t.field, t.nvars, quo) == t


def _refuse(*args):
    raise AssertionError("a route patched to refuse ran")


def _undecided(t, budget):
    """`lifting_route` patched off."""
    return finitefield.UNDECIDED


def _fallback(t, limit=10 ** 6):
    """Kronecker's route's answer: False for a factor, checked here by
    multiplication, True for irreducible."""
    a = finitefield.kronecker_route(t, limit)
    if a is not None:
        _assert_proper_factor(t, a)
    return a is None


def _route_answers(t, limit=10 ** 6):
    """{route: answer} for each route that decides T: False for a factor,
    checked here by multiplication, True for irreducible.  Kronecker's
    route, with the given limit, decides every T."""
    answers = {}
    for name in ("monomial_factor", "pth_power_factor", "content_factor"):
        a = getattr(finitefield, name)(t)
        if a is not None:
            _assert_proper_factor(t, a)
            answers[name] = False
    a = finitefield.lifting_route(t, 10 ** 6)
    if a is not finitefield.UNDECIDED:
        if a is not None:
            _assert_proper_factor(t, a)
        answers["lifting_route"] = a is None
    answers["kronecker_route"] = _fallback(t, limit)
    return answers


def _reference_irreducible(t):
    """Whether T is irreducible, by the unpruned enumeration: every g on
    the monomials of T's degree box of total degree at most deg(T)/2,
    with lex-leading coefficient 1 on a non-constant one, is tested for
    division.  A reducible T has a factor of total degree at most
    deg(T)/2 inside its degree box."""
    field = t.field
    box = [t.degree_in(i) for i in range(t.nvars)]
    monos = sorted(e for e in itertools.product(*(range(b + 1) for b in box))
                   if sum(e) <= t.degree() // 2)  # ascending lex
    elems = list(field.elements())
    for k in range(1, len(monos)):
        for combo in itertools.product(elems, repeat=k):
            g = {e: c for e, c in zip(monos, combo) if not c.is_zero}
            g[monos[k]] = field.one
            if _divides(g, t):
                return False
    return True


def _exhaustive(polys):
    """The unpruned enumeration's answers, the reference for every
    faster decision."""
    return [_reference_irreducible(t) for t in polys]


def _specialise(t, i, c):
    """T with c substituted for every variable but Z_i, by element
    arithmetic, as a univariate ResiduePoly."""
    field = t.field
    others = [j for j in range(t.nvars) if j != i]
    out = {}
    for e, coef in t.terms.items():
        for j, x in zip(others, c):
            for _ in range(e[j]):
                coef = coef * x
        out[(e[i],)] = out.get((e[i],), field.zero) + coef
    return ResiduePoly(field, 1, out)


def _has_single_factor_point(t):
    """Whether some point c for all variables but one, Z_i, keeps T's
    Z_i-degree and leaves T(c) irreducible, by enumeration."""
    elems = list(t.field.elements())
    for i in range(t.nvars):
        for c in itertools.product(elems, repeat=t.nvars - 1):
            tc = _specialise(t, i, c)
            if (tc.degree_in(0) == t.degree_in(i) >= 1
                    and is_irreducible_multivariate(tc)):
                return True
    return False


def _corner_family(field, box):
    """Every T on the degree box whose coefficient on the box's corner is
    1 and whose other coefficients range over the field."""
    monos = list(itertools.product(*(range(b + 1) for b in box)))
    corner = tuple(box)
    monos.remove(corner)
    elems = list(field.elements())
    for values in itertools.product(elems, repeat=len(monos)):
        terms = dict(zip(monos, values))
        terms[corner] = field.one
        yield ResiduePoly(field, len(box), terms)


class TestSpecialisationWitness:
    @pytest.mark.parametrize("p,gens,box", [
        (2, [], (2, 2)),
        (3, [], (2, 1)),
        (2, [], (1, 1, 1)),
        (3, [], (1, 1, 1)),
        (2, [(1, 1, 1)], (1, 1)),
        (2, [], (3, 1)),
        (3, [], (4,)),
        (2, [(1, 1, 1)], (3,)),
    ], ids=["F_2-2x2", "F_3-2x1", "F_2-1x1x1", "F_3-1x1x1", "F_4-1x1",
            "F_2-3x1", "F_3-4", "F_4-3"])
    def test_agrees_with_exhaustive_search(self, p, gens, box):
        field = ResidueField(p, gens)
        polys = list(_corner_family(field, box))
        fast = [is_irreducible_multivariate(t) for t in polys]
        reference = _exhaustive(polys)
        assert fast == reference
        # every route that decides a T agrees with the enumeration, and
        # Kronecker's route decides them all
        routes = collections.Counter()
        for t, answer in zip(polys, reference):
            answers = _route_answers(t)
            assert set(answers.values()) <= {answer}, (answers, t)
            routes.update(answers.keys())
        assert routes["kronecker_route"] == len(polys)
        assert routes["monomial_factor"]
        assert len(box) != 2 or routes["content_factor"]
        assert len(box) == 1 or routes["lifting_route"]

    @pytest.mark.parametrize("p,gens,box", [
        (2, [], (2, 2)),
        (3, [], (2, 1)),
        (2, [(1, 1, 1)], (1, 1)),
        (2, [], (3, 1)),
    ], ids=["F_2-2x2", "F_3-2x1", "F_4-1x1", "F_2-3x1"])
    def test_lifting_route_keeps_its_reach(self, p, gens, box, monkeypatch):
        # on the two-variable boxes above, every irreducible T with a
        # single-factor point, a point for one variable that keeps T's
        # degree in the other and leaves T irreducible, is decided
        # without Kronecker's route
        field = ResidueField(p, gens)
        pointed = [t for t in _corner_family(field, box)
                   if _has_single_factor_point(t)]
        witnessed = [t for t, irreducible in zip(pointed, _exhaustive(pointed))
                     if irreducible]
        assert witnessed
        monkeypatch.setattr(finitefield, "kronecker_route", _refuse)
        assert all(is_irreducible_multivariate(t) for t in witnessed)

    def test_no_witness_for_a_content_factor(self):
        # Y*Z + Y = Y*(Z + 1) is not primitive in Z, and every
        # specialisation in Y keeps the factor Z + 1; nor is (Z1 + 1)(Z2
        # + Z3 + 1) primitive in any variable
        f3 = ResidueField(3, [])
        for t in (_poly(f3, {(1, 1): 1, (1, 0): 1}),
                  _poly(f3, {(1, 0, 0): 1, (0, 0, 0): 1})
                  * _poly(f3, {(0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})):
            assert finitefield.lifting_route(t, 10 ** 6) is not None
            assert not is_irreducible_multivariate(t)

    def test_budget_counts_the_collapsed_three_variable_route(self):
        # Z1^2 Z2 Z3 + Z2 + Z3 over F_3.  In Z1, the substitution Z2 -> Y,
        # Z3 -> Y^2 gives Y^3 X^2 + Y^2 + Y: its rows cost d (e + 1)^2 =
        # 2 * 4^2 = 32, and its content Y passes Z1 over.  In Z2, Z1 -> Y,
        # Z3 -> Y^3 gives (Y^5 + 1) X + Y^3, whose rows cost 1 * 6^2 = 36,
        # and the point Y = 0 gives the linear X: one point and a test of
        # 1^3 * bitlen(3) = 2.  One unit less leaves that test unpaid, and
        # Z3's rows, 36 again, cannot be paid
        f3 = ResidueField(3, [])
        t = _poly(f3, {(2, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        assert finitefield.factor_witness(t) is None
        assert finitefield.lifting_route(t, 32 + 36 + 1 + 2) is None
        assert (finitefield.lifting_route(t, 32 + 36 + 1 + 1)
                is finitefield.UNDECIDED)
        assert _reference_irreducible(t)

    def test_large_prime_field_without_tables(self):
        # -1 is not a square mod 100003 (100003 = 3 mod 4)
        f = ResidueField(100003, [])
        t = ResiduePoly(f, 1, {(2,): f.one, (0,): f.one})
        assert is_irreducible_multivariate(t)

    def test_dropped_field_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            f5 = ResidueField(5, [])
            # Z^4 + 1 = (Z^2 + 2)(Z^2 + 3) over F_5, found by Kronecker's
            # route
            t = ResiduePoly(f5, 1, {(4,): f5.one, (0,): f5.one})
            assert not _fallback(t)
            ref = weakref.ref(f5)
            del f5, t
            assert ref() is None
            # nor after the lifting route's walk and Kronecker's route on
            # Z1 Z2 + 1 and Z1 Z2 Z3 + 1 over F_9
            for n in (2, 3):
                f9 = ResidueField(3, [(1, 0, 1)])
                t = ResiduePoly(f9, n, {(1,) * n: f9.one, (0,) * n: f9.one})
                assert is_irreducible_multivariate(t) and _fallback(t)
                ref = weakref.ref(f9)
                del f9, t
                assert ref() is None
        finally:
            gc.enable()


FIELDS = {
    "F_2": (2, []),
    "F_3": (3, []),
    "F_5": (5, []),
    "F_4": (2, [(1, 1, 1)]),  # F_2[y]/(y^2 + y + 1)
    "F_9": (3, [(1, 0, 1)]),  # F_3[y]/(y^2 + 1)
}


def _random_poly(field, rng, box, top):
    """A random polynomial on the monomials of box with total degree at
    most top, with at least one non-constant term."""
    elems = list(field.elements())
    monos = [e for e in itertools.product(*(range(b + 1) for b in box))
             if sum(e) <= top]
    while True:
        terms = {e: rng.choice(elems) for e in monos}
        t = ResiduePoly(field, len(box), terms)
        if t.degree() >= 1:
            return t


class TestDivisorSearch:
    # Kronecker's route, the fallback that decides whatever the lifting
    # route leaves, against the unpruned enumeration.  Each factor on
    # box with total degree at most top, so that the reference stays
    # near a thousand candidates or fewer
    @pytest.mark.parametrize("name,box,top", [
        ("F_2", (2, 1), 3), ("F_3", (1, 1), 2), ("F_5", (1, 1), 1),
        ("F_4", (1, 1), 2), ("F_9", (1, 1), 1),
        ("F_2", (1, 1, 1), 2), ("F_3", (1, 1, 1), 1), ("F_5", (1, 1, 1), 1),
        ("F_4", (1, 1, 1), 1), ("F_9", (1, 1, 1), 1),
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_agrees_with_the_unpruned_enumeration(self, name, box, top):
        field = ResidueField(*FIELDS[name])
        rng = random.Random(f"{name}-{box}")
        products = [_random_poly(field, rng, box, top)
                    * _random_poly(field, rng, box, top) for _ in range(6)]
        draws = [_random_poly(field, rng, [2 * b for b in box], 2 * top)
                 for _ in range(6)]
        products, draws = (
            [t for t in polys
             if sum(t.degree_in(i) > 0 for i in range(t.nvars)) > 1]
            for polys in (products, draws))
        assert products and draws
        answers = [_route_answers(t) for t in products + draws]
        reference = _exhaustive(products + draws)
        fallback = [a["kronecker_route"] for a in answers]
        assert fallback == reference
        assert not any(fallback[:len(products)])
        # and every route that decides a T agrees with the reference
        for a, answer in zip(answers, reference):
            assert set(a.values()) <= {answer}, a

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_factors_on_the_bounds(self, name):
        # factors that meet the bounds at which the exact division stops:
        # in (Z1^2 + Z2)(Z2 + 1) divided by Z2 + 1 the quotient's Z1^2
        # meets s_1 <= 2 and |s| <= 2; Z1^2 + Z2 and Z1 - Z2^2 carry T's
        # full degree in one variable, and in (Z1 + Z2*Z3)(Z3 - 1) the
        # quotient's Z2*Z3 meets the lex floor, the total and the Z2 and
        # Z3 bounds at once
        field = ResidueField(*FIELDS[name])
        one, minus = field.one, field.from_int(-1)
        factors = [
            ({(2, 0): one, (0, 1): one}, {(0, 1): one, (0, 0): one}),
            ({(1, 0): one, (0, 2): minus}, {(1, 0): one, (0, 0): one}),
            ({(1, 0, 0): one, (0, 1, 1): one},
             {(0, 0, 1): one, (0, 0, 0): minus}),
        ]
        for a, b in factors:
            n = len(next(iter(a)))
            t = ResiduePoly(field, n, a) * ResiduePoly(field, n, b)
            assert not _fallback(t)
            assert not _reference_irreducible(t)
            # the same T with 1 added to its constant term
            terms = dict(t.terms)
            terms[(0,) * n] = t.coeff((0,) * n) + one
            t = ResiduePoly(field, n, terms)
            assert _fallback(t) == _reference_irreducible(t)

    def test_ceiling_probes_decided_by_the_fallback_alone(self, monkeypatch):
        # the ceiling probes: (Z1^2 Z2^2 + 1)^3 over F_3, and the Gauss
        # probe's T at p = 10^9 + 7.  The p-th power witness and the
        # lifting route decide them reducible; with both patched off,
        # Kronecker's route factors them: images of degree 6 + 6*7 = 48
        # and 2 + 2*3 = 8, within the limit
        f3 = ResidueField(3, [])
        base = _poly(f3, {(2, 2): 1, (0, 0): 1})
        big = ResidueField(10 ** 9 + 7, [])
        probe = ResiduePoly(big, 2, {
            e: big.from_int(c) for e, c in {
                (2, 2): 1, (2, 1): 1, (1, 2): 1, (1, 1): 4, (1, 0): 2,
                (0, 1): 1, (0, 0): 2}.items()})
        cube = base * base * base
        assert finitefield.pth_power_factor(cube) == base
        a = finitefield.lifting_route(probe, 10 ** 6)
        assert a not in (None, finitefield.UNDECIDED)
        _assert_proper_factor(probe, a)
        for t in (cube, probe):
            assert not is_irreducible_multivariate(t)
        monkeypatch.setattr(finitefield, "factor_witness", lambda t: None)
        monkeypatch.setattr(finitefield, "lifting_route", _undecided)
        for t in (cube, probe):
            assert not _fallback(t)
            assert not is_irreducible_multivariate(t)
        # one unit of limit short of the cube's image's Rabin work
        with pytest.raises(ResourceLimitExceeded) as exc:
            is_irreducible_multivariate(cube, 48 ** 3 * 2 - 1)
        assert str(exc.value) == (
            "univariate Rabin work limit exceeded: "
            f"need {48 ** 3 * 2}, limit is {48 ** 3 * 2 - 1}")

    def test_small_limits_trip_each_guard(self):
        # Z1^3 Z2^3 - 1 over F_31 has the image Z^(3 + 3*4) - 1 = Z^15 - 1,
        # whose 15 roots are distinct and in F_31, since 15 divides 30:
        # the factorisation is charged 15^3 * bitlen(31) = 16,875, and
        # the 15 linear factors have 2^15 sub-multisets
        f31 = ResidueField(31, [])
        t = _poly(f31, {(3, 3): 1, (0, 0): -1})
        for limit, name, needed in (
                (16_874, "univariate Rabin work", 16_875),
                (32_767, "multivariate divisor candidates", 32_768)):
            with pytest.raises(ResourceLimitExceeded) as exc:
                finitefield.kronecker_route(t, limit)
            assert exc.value.bound_name == name
            assert exc.value.needed == needed
        a = finitefield.kronecker_route(t, 32_768)
        _assert_proper_factor(t, a)

    def test_three_variable_residue_decided_by_either_route(self, monkeypatch):
        # Z1^2 Z2^2 Z3^2 + Z1 + Z2 + Z3 + 1 over F_3: three variables, no
        # monomial factor, not a cube.  In Z1, Z2 -> Y and Z3 -> Y^3 give
        # Y^8 X^2 + X + Y^3 + Y + 1, irreducible at Y = 2, so the route
        # decides it irreducible; with the route patched off, Kronecker's
        # route does, from an image of degree 26
        f3 = ResidueField(3, [])
        one = f3.one
        t = ResiduePoly(f3, 3, {(2, 2, 2): one, (1, 0, 0): one,
                                (0, 1, 0): one, (0, 0, 1): one,
                                (0, 0, 0): one})
        assert finitefield.factor_witness(t) is None
        assert finitefield.lifting_route(t, 10 ** 6) is None
        assert is_irreducible_multivariate(t)
        assert _fallback(t)
        monkeypatch.setattr(finitefield, "lifting_route", _undecided)
        assert is_irreducible_multivariate(t)

    def test_repeated_factor_above_the_guard(self):
        # (Z1 Z2 + Z1 + 1)^2 (Z1 + Z2) over F_(10^9 + 7) has no point
        # where T(X, c) is squarefree, so the lifting route gives up in
        # both variables; Kronecker's image, of degree 3 + 3*4 = 15,
        # shows the square
        big = ResidueField(10 ** 9 + 7, [])
        a = _poly(big, {(1, 1): 1, (1, 0): 1, (0, 0): 1})
        t = a * a * _poly(big, {(1, 0): 1, (0, 1): 1})
        assert finitefield.lifting_route(t, 10 ** 6) is finitefield.UNDECIDED
        start = time.process_time()
        assert not is_irreducible_multivariate(t)
        assert time.process_time() - start < 1.0
        assert not _fallback(t)

    def test_three_variable_product_over_f9(self):
        # (Z1 + Z2 + y Z3)(Z1 + y Z2 + 1) over F_9 = F_3[y]/(y^2 + 1):
        # both factors have positive degree in Z1 and Z2, so no witness
        # finds them, and every point of the route's walk gives a
        # reducible T(c)
        f9 = ResidueField(3, [(1, 0, 1)])
        y, one = f9.element({(1,): 1}), f9.one
        a = ResiduePoly(f9, 3, {(1, 0, 0): one, (0, 1, 0): one, (0, 0, 1): y})
        b = ResiduePoly(f9, 3, {(1, 0, 0): one, (0, 1, 0): y, (0, 0, 0): one})
        t = a * b
        assert finitefield.factor_witness(t) is None
        assert not is_irreducible_multivariate(t)
        assert not _fallback(t)
        assert not _reference_irreducible(t)

    def test_witnessless_pool_residues_decide_quickly(self, monkeypatch):
        # the benchmark's gauss3-33 and inert9-ramified residues, decided
        # by Kronecker's route alone
        monkeypatch.setattr(finitefield, "lifting_route", _undecided)
        f3 = ResidueField(3, [])
        gauss = _poly(f3, {
            (3, 3): 1, (3, 2): 2, (2, 3): 2, (3, 1): 1, (2, 2): 2, (1, 3): 1,
            (2, 1): 2, (1, 2): 2, (2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 0): 1,
            (0, 1): 1})
        f9 = ResidueField(3, [(1, 0, 1)])
        inert = ResiduePoly(f9, 2, {e: f9.element(c) for e, c in {
            (2, 2): {(0,): 1}, (1, 2): {(0,): 1}, (1, 1): {(0,): 1},
            (0, 2): {(1,): 2}, (1, 0): {(1,): 1, (0,): 1},
            (0, 1): {(1,): 1}}.items()})
        start = time.process_time()
        assert is_irreducible_multivariate(gauss)
        assert is_irreducible_multivariate(inert)
        assert time.process_time() - start < 1.0


class TestReducibilityRoutes:
    # factors as in TestDivisorSearch, so the reference's enumeration
    # stays small
    @pytest.mark.parametrize("name,box,top", [
        ("F_2", (2, 1), 3), ("F_3", (1, 1), 2), ("F_5", (1, 1), 1),
        ("F_4", (1, 1), 2), ("F_9", (1, 1), 1),
        ("F_2", (1, 1, 1), 2), ("F_3", (1, 1, 1), 1), ("F_4", (1, 1, 1), 1),
        ("F_2", (1, 1, 1, 1), 1), ("F_3", (1, 1, 1, 1), 1),
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_products_and_products_plus_one(self, name, box, top):
        # every route that decides a random product, or the product with
        # 1 added to its constant term, Kronecker's route among them,
        # agrees with the unpruned enumeration; four variables give
        # Kronecker images of degree up to 80, so it runs with a limit of
        # 10^7
        field = ResidueField(*FIELDS[name])
        rng = random.Random(f"routes-{name}")
        n = len(box)
        polys = []
        for _ in range(6):
            t = (_random_poly(field, rng, box, top)
                 * _random_poly(field, rng, box, top))
            terms = dict(t.terms)
            terms[(0,) * n] = t.coeff((0,) * n) + field.one
            polys += [t, ResiduePoly(field, n, terms)]
        polys = [t for t in polys
                 if sum(t.degree_in(i) > 0 for i in range(n)) > 1]
        decided = 0
        for t in polys:
            answer = _reference_irreducible(t)
            for verdict in _route_answers(t, 10 ** 7).values():
                assert verdict == answer
                decided += 1
        assert decided

    def test_lifting_route_decides_above_the_guard(self):
        # (Z1 Z2 + Z1 + 1)(Z1 Z2 + Z2 + 2) over F_997 and the same plus 1:
        # far above the guard, decided at the first point where T keeps
        # its Z1-degree and T(c) is squarefree.  For T, Z1 is tried
        # first: the point 0 is a root of the Z1-leading coefficient Z2^2
        # + Z2, and the point 1 gives two linear factors; the two points
        # cost 2, the factorisation 2^3 * bitlen(997) = 80, the lifting
        # 2^2 * 3^2 = 36 and the first subset, a factor, 36 more.  The
        # factorisation costs more than the lifting, so no second point
        # is factored
        f = ResidueField(997, [])
        one = f.one
        a = ResiduePoly(f, 2, {(1, 1): one, (1, 0): one, (0, 0): one})
        b = ResiduePoly(f, 2, {(1, 1): one, (0, 1): one,
                               (0, 0): f.from_int(2)})
        t = a * b
        assert finitefield.lifting_route(t, 10 ** 6) in (a, b)
        assert finitefield.lifting_route(t, 2 + 80 + 36 + 36) in (a, b)
        assert (finitefield.lifting_route(t, 2 + 80 + 36 + 35)
                is finitefield.UNDECIDED)
        assert not is_irreducible_multivariate(t)
        terms = dict(t.terms)
        terms[(0, 0)] += one
        plus_one = ResiduePoly(f, 2, terms)
        assert finitefield.lifting_route(plus_one, 10 ** 6) is None
        assert is_irreducible_multivariate(plus_one)

    def test_budget_counts_work_points_and_subsets(self):
        # over F_5, Z1 is tried first; a point costs 1, a factorisation
        # 2^3 * bitlen(5) = 24, the lifting and each subset 2^2 * 3^2 =
        # 36.  A factorisation costs no more than the lifting, so the
        # walk factors up to d + 1 = 3 good points.  Z1^2 Z2^2 + 1 =
        # (Z1 Z2 + 2)(Z1 Z2 + 3): the point 0 drops the Z1-degree, the
        # points 1, 2 and 3 each give two linear factors, and the lifting
        # at the first of them and its first subset give a factor, 4 + 3
        # * 24 + 36 + 36 in all.  In Z1^2 Z2^2 + Z1 Z2 + Z1 + 1 the point
        # 1 gives (Z1 + 1)^2 and the point 2 an irreducible quadratic,
        # which decides T with no lifting: 3 + 24.  One unit less leaves
        # each undecided
        f5 = ResidueField(5, [])
        reducible = _poly(f5, {(2, 2): 1, (0, 0): 1})
        irreducible = _poly(f5, {(2, 2): 1, (1, 1): 1, (1, 0): 1, (0, 0): 1})
        for t, needed, answer in ((reducible, 148, False),
                                  (irreducible, 27, True)):
            assert finitefield.factor_witness(t) is None
            assert (finitefield.lifting_route(t, needed - 1)
                    is finitefield.UNDECIDED)
            a = finitefield.lifting_route(t, needed)
            assert a is not finitefield.UNDECIDED
            assert (a is None) == answer == _reference_irreducible(t)
            if a is not None:
                _assert_proper_factor(t, a)

    def test_criterion_4_family_rarely_reaches_the_search(self, monkeypatch):
        # the residues Z1^2 Z2^2 + a Z1 Z2 + b Z1 + c Z2 + d of the
        # criterion-4 family over F_3: the lifting route decides all but
        # six, the four with no squarefree point in F_3 in either
        # variable and the squares (Z1 Z2 -+ 1)^2, which Kronecker's
        # route decides, and every answer agrees with the unpruned
        # enumeration
        f3 = ResidueField(3, [])
        fallback = finitefield.kronecker_route
        seen = []

        def spy(t, limit):
            seen.append(t)
            return fallback(t, limit)

        monkeypatch.setattr(finitefield, "kronecker_route", spy)
        polys = {}
        for a, b, c, d in itertools.product(range(3), repeat=4):
            polys[a, b, c, d] = _poly(f3, {(2, 2): 1, (1, 1): a, (1, 0): b,
                                           (0, 1): c, (0, 0): d})
        answers = [is_irreducible_multivariate(t) for t in polys.values()]
        assert answers == _exhaustive(polys.values())
        six = [polys[k] for k in ((1, 1, 2, 2), (1, 2, 1, 2), (2, 1, 1, 2),
                                  (2, 2, 2, 2), (1, 0, 0, 1), (2, 0, 0, 1))]
        assert len(seen) <= 6 and all(t in six for t in seen)

    def test_factors_with_positive_degree_everywhere_below_the_guard(
            self, monkeypatch):
        # (Z1 + Z2 + 1)(Z1 + 2 Z2 + 3) over F_997: the route lifts two
        # linear factors at its first good point, and Kronecker's route
        # does not run; called alone, it factors T too.  So for (Z1 + Z2
        # + Z3 + 1)(Z1 + 2 Z2 + 3 Z3 + 5) over F_997 and (Z1 + Z2 + y
        # Z3)(Z1 + y Z2 + 1) over F_9 = F_3[y]/(y^2 + 1), whose images in
        # Z1 and Y, under Z2 -> Y and Z3 -> Y^3, lift the same way
        f = ResidueField(997, [])
        f9 = ResidueField(3, [(1, 0, 1)])
        y, one = f9.element({(1,): 1}), f9.one
        pairs = [
            (_poly(f, {(1, 0): 1, (0, 1): 1, (0, 0): 1}),
             _poly(f, {(1, 0): 1, (0, 1): 2, (0, 0): 3})),
            (_poly(f, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                       (0, 0, 0): 1}),
             _poly(f, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3,
                       (0, 0, 0): 5})),
            (ResiduePoly(f9, 3, {(1, 0, 0): one, (0, 1, 0): one,
                                 (0, 0, 1): y}),
             ResiduePoly(f9, 3, {(1, 0, 0): one, (0, 1, 0): y,
                                 (0, 0, 0): one})),
        ]
        for a, b in pairs:
            t = a * b
            factor = finitefield.lifting_route(t, 10 ** 6)
            assert factor in (a, b)
            _assert_proper_factor(t, factor)
            assert not _fallback(t)
        monkeypatch.setattr(finitefield, "kronecker_route", _refuse)
        for a, b in pairs:
            t = a * b
            start = time.process_time()
            assert not is_irreducible_multivariate(t)
            assert time.process_time() - start < 0.25

    def test_three_variables_over_a_large_field(self, monkeypatch):
        # over F_(10^9 + 7) no walk could draw the q^2 points of two
        # variables: (Z1 Z2 + Z3 + 1)(Z1 Z3 + 2 Z2 + 3) is factored, and
        # Z1^3 Z2^2 Z3^2 + Z1 + Z2 + Z3 + 5, whose Kronecker image of
        # degree 3 + 2*4 + 2*12 = 35 is beyond the guard, is decided
        # irreducible, both by the lifting route alone
        big = ResidueField(10 ** 9 + 7, [])
        a = _poly(big, {(1, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
        b = _poly(big, {(1, 0, 1): 1, (0, 1, 0): 2, (0, 0, 0): 3})
        irreducible = _poly(big, {(3, 2, 2): 1, (1, 0, 0): 1, (0, 1, 0): 1,
                                  (0, 0, 1): 1, (0, 0, 0): 5})
        with pytest.raises(ResourceLimitExceeded) as exc:
            finitefield.kronecker_route(irreducible, 10 ** 6)
        assert exc.value.needed == 35 ** 3 * 30
        monkeypatch.setattr(finitefield, "kronecker_route", _refuse)
        start = time.process_time()
        assert finitefield.lifting_route(a * b, 10 ** 6) in (a, b)
        assert not is_irreducible_multivariate(a * b)
        assert is_irreducible_multivariate(irreducible)
        assert time.process_time() - start < 0.25

    @pytest.mark.parametrize("k", [1000, 50000])
    def test_collapsed_rows_beyond_the_budget_are_not_built(self, k):
        # Z1 (Z2^k Z3^k + Z2) + Z3^k + 1 over F_(10^9 + 7): the collapsed
        # rows of every main variable have Y-degree about k^2 or 2k with
        # X-degree 1 or k, so d (e + 1)^2 is beyond the limit and none is
        # built (for k = 50000, Z1's would be two of about 2.5 * 10^9).
        # The route leaves T undecided, and Kronecker's guard refuses it
        big = ResidueField(10 ** 9 + 7, [])
        t = _poly(big, {(1, k, k): 1, (1, 1, 0): 1, (0, 0, k): 1,
                        (0, 0, 0): 1})
        start = time.process_time()
        assert finitefield.lifting_route(t, 10 ** 6) is finitefield.UNDECIDED
        with pytest.raises(ResourceLimitExceeded) as exc:
            is_irreducible_multivariate(t)
        assert exc.value.bound_name == "univariate Rabin work"
        assert time.process_time() - start < 0.25

    @pytest.mark.parametrize("name", ["F_2", "F_3", "F_4", "F_9", "F_997"])
    def test_factoriser_multiplies_back(self, name):
        # random monic squarefree polynomials of degree 1 to 8: the
        # factors are monic and irreducible, their product is the input,
        # and the linear ones are as many as the roots
        p, gens = FIELDS.get(name, (997, []))
        field = ResidueField(p, gens)
        ar = finitefield._Arith(p, field)
        elems = list(ar.elements())
        rng = random.Random(f"factor-{name}")
        tried = 0
        while tried < 40:
            f = [rng.choice(elems) for _ in range(rng.randint(1, 8))]
            f.append(ar.one)
            slope = [ar.mul(ar.from_int(k), c) for k, c in enumerate(f)][1:]
            if len(finitefield._gcd(f, slope, ar)) > 1:
                continue
            tried += 1
            factors = finitefield._factor_squarefree(
                finitefield._distinct_degree(f, ar), ar)
            prod = [ar.one]
            for g in factors:
                assert g[-1] == ar.one and finitefield._ben_or(g, ar)
                prod = finitefield._mul(prod, g, ar)
            assert prod == f
            roots = 0
            for x in (elems if ar.q < 100 else []):
                value = ar.zero
                for c in reversed(f):
                    value = ar.add(ar.mul(value, x), c)
                roots += not value
            if ar.q < 100:
                assert sum(len(g) == 2 for g in factors) == roots
