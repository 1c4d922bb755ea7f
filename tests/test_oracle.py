"""The brute-force factorization oracle over the rationals."""

import itertools
import time
from fractions import Fraction

import pytest

from liftcert import MultiPoly, brute_factor, oracle
from liftcert.errors import DEFAULT_CANDIDATE_LIMIT, ResourceLimitExceeded
from liftcert.oracle import (
    _factor_key,
    _factor_univariate_int,
    _int_mul,
    _primitive_part,
    exact_divide,
)

from conftest import P


def _factor_strs(result, names=("x", "y")):
    return sorted(g.to_str(list(names)) for g, _ in result.factors)


def _kronecker_image(f, guard):
    """The reference factorization of a primitive f in one or two
    variables by Kronecker's substitution alone.

    y -> x^D with D = 1 + deg_x f maps f to a univariate integer
    polynomial, which the oracle's univariate search factors.  A factor
    g of f has deg_x g < D, so its image maps back to g itself: a split
    of what is left of f shows up as a proper subset of the image's
    factors whose product, mapped back, divides it.  When no proper
    subset does, what is left is irreducible."""
    d_base = 1 + f.degree_in(0)
    image = {exps[0] + d_base * sum(exps[1:]): int(c)
             for exps, c in f.terms.items()}
    pool = _factor_univariate_int(
        [image.get(k, 0) for k in range(1 + max(image))], guard)
    if f.nvars == 1:
        return [MultiPoly.from_univariate(1, 0, g) for g in pool]
    factors, remaining, found = [], f, True
    while found and len(pool) > 1:
        found = False
        for size in range(1, len(pool)):
            for subset in itertools.combinations(range(len(pool)), size):
                product = [1]
                for i in subset:
                    product = _int_mul(product, pool[i])
                candidate, _ = _primitive_part(MultiPoly(2, {
                    (k % d_base, k // d_base): c
                    for k, c in enumerate(product)}))
                quotient = (exact_divide(remaining, candidate)
                            if candidate.degree() >= 1 else None)
                if quotient is not None:
                    factors.append(candidate)
                    remaining = quotient
                    pool = [g for i, g in enumerate(pool) if i not in subset]
                    found = True
                    break
            if found:
                break
    return factors + [remaining]


def _image_factors(f):
    """The factors, with repetition, that Kronecker's image finds for
    f's primitive part, in brute_factor's order."""
    primitive, _ = _primitive_part(f)
    return sorted(_kronecker_image(primitive, DEFAULT_CANDIDATE_LIMIT),
                  key=_factor_key)


class TestExamples:
    def test_difference_of_units(self):
        result = brute_factor(P("x^2*y^2 - 1"))
        assert not result.irreducible
        assert _factor_strs(result) == ["x*y + 1", "x*y - 1"]

    def test_worked_example_irreducible(self):
        result = brute_factor(P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1"))
        assert result.irreducible

    def test_univariate_split(self):
        result = brute_factor(P("x^2 - 1", ("x",)))
        assert _factor_strs(result, ("x",)) == ["x + 1", "x - 1"]

    def test_scalar_and_multiplicity(self):
        result = brute_factor(P("2*x^2 + 4*x + 2", ("x",)))
        assert result.scalar == 2
        assert result.factors == [(P("x + 1", ("x",)), 2)]

    def test_rational_scalar(self):
        result = brute_factor(P("1/2*x", ("x",)))
        assert result.scalar == Fraction(1, 2)
        assert result.factors == [(P("x", ("x",)), 1)]

    def test_constant(self):
        result = brute_factor(P("7", ("x",)))
        assert result.scalar == 7
        assert result.factors == []
        assert not result.irreducible

    def test_irrational_quadratic(self):
        # x^2 - 2 has no rational factorization
        assert brute_factor(P("x^2 - 2", ("x",))).irreducible

    def test_quartic_into_quadratics(self):
        # (x^2+1)(x^2+2) has no rational roots; needs the degree-2 search
        result = brute_factor(P("x^4 + 3*x^2 + 2", ("x",)))
        assert _factor_strs(result, ("x",)) == ["x^2 + 1", "x^2 + 2"]

    def test_primitive_factor_demap(self):
        result = brute_factor(P("(x + y)*(x*y + 2)"))
        assert _factor_strs(result) == ["x + y", "x*y + 2"]

    def test_factor_order_is_canonical(self):
        # factors of one degree and support are ordered by coefficients,
        # not by the order the search happens to find them in
        result = brute_factor(P("(x + 2)*(3*x - 4)*(x^2 + 1)", ("x",)))
        assert [g.to_str(["x"]) for g, _ in result.factors] == [
            "3*x - 4", "x + 2", "x^2 + 1"]

    def test_eisenstein_is_irreducible(self):
        assert brute_factor(P("x^5 + 2", ("x",))).irreducible

    @pytest.mark.parametrize("text, scalar, factors", [
        # lc(u) = -315 has fewer divisors than the values at the chosen
        # points, so the last level runs over the leads
        ("(21*x^2 + 40*x - 74)*(-15*x^2 + 28*x + 78)", -1,
         ["15*x^2 - 28*x - 78", "21*x^2 + 40*x - 74"]),
        # here a value at the last point has the fewer divisors
        ("(15*x^2 + 2*x + 2)*(-21*x^2 + 4*x + 6)", -1,
         ["15*x^2 + 2*x + 2", "21*x^2 - 4*x - 6"]),
        ("(-21*x^2 + 2)*(15*x^2 + 2*x - 2)*(35*x^2 + 2)", -1,
         ["15*x^2 + 2*x - 2", "21*x^2 - 2", "35*x^2 + 2"]),
        ("(15*x^2 + 6*x + 70)*(-35*x^2 + 58*x - 86)", -1,
         ["15*x^2 + 6*x + 70", "35*x^2 - 58*x + 86"]),
    ])
    def test_non_monic_eisenstein_products(self, text, scalar, factors):
        # each factor is Eisenstein at 2 with an odd composite lead, so
        # none has a rational root and lc(g) is a proper divisor of lc(u)
        result = brute_factor(P(text, ("x",)))
        assert result.scalar == scalar
        assert [m for _, m in result.factors] == [1] * len(factors)
        assert _factor_strs(result, ("x",)) == sorted(factors)
        assert result.reconstruct(1) == P(text, ("x",))

    @pytest.mark.parametrize("text, factors", [
        ("x*y^7 + x + 1", ["x*y^7 + x + 1"]),
        ("y^8 + x", ["y^8 + x"]),
        ("x*y^6 + y + 1", ["x*y^6 + y + 1"]),
        ("(x*y^5 + 3)*(y^2 - x)", ["x*y^5 + 3", "y^2 - x"]),
    ])
    def test_base_follows_the_x_degree(self, text, factors):
        # the reference image's D = 1 + deg_x f keeps its values small
        # enough to list their divisors; with D = 1 + max(deg_x, deg_y)
        # these trip the "divisor trials" guard.  brute_factor builds no
        # image, so the reference is called too
        result = brute_factor(P(text))
        assert result.scalar == 1
        assert _factor_strs(result) == sorted(factors)
        assert sorted(g.to_str(["x", "y"]) for g in _image_factors(P(text))
                      ) == sorted(factors)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            brute_factor(MultiPoly.zero(1))


class TestProperties:
    def test_reconstruction_random_products(self, rng):
        for _ in range(150):
            n = rng.randint(1, 2)

            def rand_factor():
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    e = tuple(rng.randint(0, 1) for _ in range(n))
                    terms[e] = Fraction(rng.randint(-3, 3))
                terms[tuple(1 for _ in range(n))] = Fraction(
                    rng.choice([1, 1, 2])
                )
                return MultiPoly(n, terms)

            f = rand_factor() * rand_factor()
            if f.is_zero or f.degree() > 8:
                continue
            result = brute_factor(f)
            assert result.reconstruct(n) == f
            assert not result.irreducible or len(result.factors) == 1

    def test_factors_are_idempotent(self, rng):
        # re-factoring a reported factor returns it unchanged
        for text in ("x^2*y^2 - 1", "x^4 + 3*x^2 + 2", "(x+y)^2*(x-y)"):
            f = P(text)
            for g, _ in brute_factor(f).factors:
                again = brute_factor(g)
                assert again.irreducible
                assert again.factors == [(g, 1)]

    def test_exact_divide(self, rng):
        f = P("x^2*y^2 - 1")
        g = P("x*y + 1")
        q = exact_divide(f, g)
        assert q is not None and q * g == f
        assert exact_divide(f, P("x + 1")) is None


class TestGuards:
    def test_too_many_variables(self):
        f = MultiPoly(3, {(1, 1, 1): Fraction(1)})
        with pytest.raises(ResourceLimitExceeded):
            brute_factor(f)

    def test_total_degree_bound(self):
        with pytest.raises(ResourceLimitExceeded):
            brute_factor(P("x^9 + 1", ("x",)))

    def test_node_guard(self):
        # a tiny candidate budget trips on the degree-2 factor search
        with pytest.raises(ResourceLimitExceeded):
            brute_factor(P("x^4 + 3*x^2 + 2", ("x",)), guard=2)

    def test_point_choice_decides_within_default_guard(self):
        # interpolating at 0, 1, -1, ... takes more than 10^6 divisor
        # tuples here; the points whose values have the fewest divisors
        # decide it quickly (on the reference image: brute_factor
        # decides it by specialisation)
        f = P("x^2*y^2 - 2*x^2*y + x^2 + 43*y^2 + 7*x - 86*y + 78")
        start = time.perf_counter()
        assert _image_factors(f) == [f]
        assert time.perf_counter() - start < 2
        assert brute_factor(f).irreducible

    def test_point_choice_skips_values_past_the_guard(self):
        # some window values need more than 10^6 divisor trials; ranking
        # them would trip the guard on an input it otherwise decides
        f = P("x^3*y^3 + 2*x^3*y^2 - 2*x^2*y^3 - 6*x^2*y^2 + 4*x*y^3"
              " + 12*x^2*y + 7*x*y^2 - 2*y^3 + 2*x^2 - 4*x*y + 4*x + 2*y - 1")
        assert _image_factors(f) == [f]
        assert brute_factor(f).irreducible


def _swap(f):
    return MultiPoly(2, {(j, i): c for (i, j), c in f.terms.items()})


def _random_bivariate(rng, degree, coeff=5):
    """Each monomial of total degree <= degree kept with probability
    0.6, with a nonzero coefficient in [-coeff, coeff]."""
    while True:
        f = MultiPoly(2, {
            (i, j): rng.choice([-1, 1]) * rng.randint(1, coeff)
            for i in range(degree + 1) for j in range(degree + 1 - i)
            if rng.random() < 0.6})
        if f.degree() >= 1:
            return f


def _in_one_variable(rng, var, degree):
    """A random polynomial of the given degree in x (var 0) or y (var 1)."""
    coeffs = [rng.randint(-5, 5) for _ in range(degree)]
    return MultiPoly.from_univariate(
        2, var, coeffs + [rng.choice([-1, 1]) * rng.randint(1, 5)])


def _products(rng, count, coeff=9, degree=8):
    """Seeded reducible bivariates of total degree at most degree, in
    turn g*h, g^2*h and c(y)*g, c(x)*g with c in one variable."""
    cases = []
    while len(cases) < count:
        kind = len(cases) % 3
        g = _random_bivariate(rng, rng.randint(1, 3 if kind else 4), coeff)
        if kind == 0:
            f = g * _random_bivariate(rng, rng.randint(1, 4), coeff)
        elif kind == 1:
            f = g * g * _random_bivariate(rng, rng.randint(1, 2), coeff)
        else:
            f = _in_one_variable(rng, len(cases) % 2, rng.randint(1, 3)) * g
        if f.degree() <= degree:
            cases.append(f)
    return cases


class TestSpecialisation:
    def test_never_proves_a_reducible_input_irreducible(self, rng):
        # a reducible f has no irreducible specialisation f(v, t) at a
        # point where lc_v(f)(t) != 0, once the content in v is 1; the
        # canaries need the content test ((x^2+1)(y^2+2)) and the lc
        # test ((x*y+1)(x+y) at y = 0 gives x)
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        cases = [P("(x^2 + 1)*(y^2 + 2)"), P("(x*y + 1)*(x + y)"),
                 P("(x*y + 1)^2"), P("x*(x*y + 1)")]
        for _ in range(40):
            g = _random_bivariate(rng, rng.randint(1, 3))
            h = _random_bivariate(rng, rng.randint(1, 3))
            cases += [
                g * h,
                _in_one_variable(rng, 1, rng.randint(1, 3)) * g,
                _in_one_variable(rng, 0, rng.randint(1, 3)) * g,
                _in_one_variable(rng, 0, rng.randint(1, 3))
                * _in_one_variable(rng, 1, rng.randint(1, 3)),
                rng.choice([x, y]) * g,
                g * g,
            ]
        start = time.process_time()
        for case in cases:
            for f in (case, _swap(case)):
                assert not brute_factor(f).irreducible, f
        assert time.process_time() - start < 4

    def test_agrees_with_the_image(self, rng):
        # desk scale, wherever the reference image decides: brute_factor's
        # factors, with repetition, are the image's, on random draws and
        # products and on products, squares and content cases
        compared = irreducible = 0
        cases = []
        for k in range(120):
            f = _random_bivariate(rng, rng.randint(1, 3 - k % 2), coeff=3)
            if k % 2:
                f = f * _random_bivariate(rng, rng.randint(1, 2), coeff=3)
            cases.append(f)
        cases += _products(rng, 60, coeff=3, degree=4)
        for f in cases:
            try:
                image = _image_factors(f)
            except ResourceLimitExceeded:
                continue
            result = brute_factor(f)
            assert [g for g, m in result.factors for _ in range(m)] == image
            compared += 1
            irreducible += result.irreducible
        assert compared >= 150 and irreducible >= 30, (compared, irreducible)

    @pytest.mark.parametrize("text", [
        "9*x^5 - 7*x^4*y + 9*x^3*y^2 - 7*y^5 + 6*x^4 - 4*x*y^3 - 6*x*y^2",
        "9*x^6 + 5*x^2*y^4 + 5*x^4*y + 4*x^3*y^2 + 4*y^5 - 6*x^4 + 5*x^3*y"
        " - 4*x^3 + 2*x^2 - 6*y",
        "7*x^6*y^2 - 5*x^3*y^5 - 5*x*y^7 + 4*y^8 + 4*x^7 + 8*x^4*y^3"
        " - 5*x^2*y^5 + y^7 + x^6 + 5*x^5*y + 3*x^2*y^4 + 3*y^6"
        " - 8*x^3*y^2 + 7*x*y^4 - 8*x^4 + 8*x^2*y^2 + 6*x*y^3 - 5*y^4"
        " - 4*y^3 + x + 3",
    ])
    def test_decides_draws_beyond_the_image(self, text):
        # irreducible draws of total degree 5-8 (coefficients in [-9, 9],
        # each monomial kept with probability 0.6, seed 2) whose image
        # trips the "divisor trials" guard; one specialisation decides
        # each
        f = P(text)
        with pytest.raises(ResourceLimitExceeded, match="divisor trials"):
            _image_factors(f)
        start = time.process_time()
        assert brute_factor(f).irreducible
        assert time.process_time() - start < 0.1


class TestLift:
    def test_decides_a_product_beyond_the_image(self):
        # the image y -> x^6 needs 2,568,481 divisor trials here
        f = P("-42*x^5*y^3 - 78*x^3*y^4 + 14*x^5 + 26*x^3*y - 42*x^2*y^2"
              " + 147*x^3 - 78*y^3 + 273*x*y")
        with pytest.raises(ResourceLimitExceeded, match="divisor trials"):
            _image_factors(f)
        start = time.process_time()
        result = brute_factor(f)
        assert time.process_time() - start < 0.1
        assert result.scalar == -1
        assert _factor_strs(result) == [
            "6*x^3*y^3 - 2*x^3 + 6*y^2 - 21*x", "7*x^2 + 13*y"]

    def test_seeded_products_decide(self, rng):
        # products, squares and content cases of total degree <= 8 decide
        # under the default guard; each factor is irreducible
        start = time.process_time()
        results = [brute_factor(f) for f in _products(rng, 100)]
        assert time.process_time() - start < 2
        for result in results:
            assert not result.irreducible
            for g, _ in result.factors:
                assert brute_factor(g).factors == [(g, 1)]

    @pytest.mark.parametrize("text, factors", [
        ("(x^2 + 1)*(y^2 + 2)", [("x^2 + 1", 1), ("y^2 + 2", 1)]),
        ("(x*y + 1)^2*(x + y)", [("x + y", 1), ("x*y + 1", 2)]),
        ("x*(x*y + 1)", [("x", 1), ("x*y + 1", 1)]),
        ("(y + 1)*(x^2 + 2)", [("y + 1", 1), ("x^2 + 2", 1)]),
        ("(2*x*y + 3)*(5*x*y^2 - 7*y + 1)",
         [("2*x*y + 3", 1), ("5*x*y^2 - 7*y + 1", 1)]),
        ("x^4 - 60*x^2*y^2 + 16*y^4", [("x^4 - 60*x^2*y^2 + 16*y^4", 1)]),
        ("x^4 + y^4", [("x^4 + y^4", 1)]),
    ])
    def test_canaries(self, text, factors):
        result = brute_factor(P(text))
        assert result.scalar == 1
        assert sorted((g.to_str(["x", "y"]), m)
                      for g, m in result.factors) == sorted(factors)

    def test_recombination_guard(self):
        # every subset tried counts: the first divides, and the second
        # is one too many; the specialisations find only rational roots,
        # whose divisor lists stay within the guard
        f = P("(x*y - 1)*(x*y - 2)*(x + y)")
        with pytest.raises(ResourceLimitExceeded,
                           match="recombination subsets limit exceeded: "
                                 "need 2, limit is 1"):
            brute_factor(f, guard=1)
        assert len(brute_factor(f, guard=2).factors) == 3


class TestUnivariateSearch:
    def test_resumes_at_the_degree_found(self, monkeypatch):
        # (x^4 + x + 1)*(x^4 + 2*x^3 + 2): the quartic quotient has no
        # quadratic factor, since u has none, so it is not searched again
        calls = []
        search = oracle._has_degree_factor

        def spy(u, r, *args):
            calls.append((len(u) - 1, r))
            return search(u, r, *args)

        monkeypatch.setattr(oracle, "_has_degree_factor", spy)
        result = brute_factor(P("(x^4 + x + 1)*(x^4 + 2*x^3 + 2)", ("x",)))
        assert _factor_strs(result, ("x",)) == [
            "x^4 + 2*x^3 + 2", "x^4 + x + 1"]
        assert calls == [(8, 2), (8, 3), (8, 4)]
