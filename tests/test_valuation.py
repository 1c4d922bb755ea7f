"""Minimal pairs, derived invariants, the valuation w, and residues."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from liftcert import (
    Inert,
    MultiPoly,
    PairConfig,
    RationalCenter,
    ResiduePoly,
    generate_lifting,
)
from liftcert import multipoly, phi_expand
from liftcert.errors import ConfigError, ResourceLimitExceeded
from liftcert.multipoly import content_valuation
from liftcert.valuation import (
    load_pair_specs,
    pair_specs_from_json,
    pair_specs_to_json,
)

from conftest import (
    SPLIT_CONFIGS,
    P,
    gauss_config,
    liftable_residue,
    random_poly,
    rc_config,
)


def w_of(config, f):
    """w(f) and the contributing indices, from one walk over the table."""
    w, contributing, _ = config.valuation(config.expansion_table(f))
    return w, contributing


def residue_at(config, f):
    table = config.expansion_table(f)
    _, contributing, _ = config.valuation(table)
    return config.residue(table, contributing)


def pair_data(spec, p):
    """The derived data of one pair, validated as PairConfig does."""
    return PairConfig([spec], p).pairs[0]


class TestLambda:
    def test_rational_center_is_delta(self):
        assert pair_data(RationalCenter(Fraction(0), Fraction(0)), 3).lam == 0
        assert pair_data(
            RationalCenter(Fraction(2), Fraction(5, 7)), 3
        ).lam == Fraction(5, 7)

    def test_inert_x2_plus_1(self):
        # [DERIVED] phi = x^2+1 at p=3: the k=1 Taylor digit is 2x with
        # content 0, so lambda = min(delta, 1 + 2*delta) = delta here
        assert pair_data(Inert((1, 0, 1), Fraction(1, 2)), 3).lam == Fraction(
            1, 2
        )
        assert pair_data(Inert((1, 0, 1), Fraction(3)), 3).lam == 3

    def test_inert_x2_plus_x_plus_1(self):
        assert pair_data(
            Inert((1, 1, 1), Fraction(1, 3)), 2
        ).lam == Fraction(1, 3)

    def test_inert_lambda_equals_delta(self):
        # for phi irreducible mod p the derivative digit is a unit
        # (otherwise phi mod p would be a p-th power), so the k=1 branch
        # of the minimum always wins and lambda = delta
        for spec, p in [
            (Inert((1, 3, 1), Fraction(10)), 3),
            (Inert((1, 1, 0, 1), Fraction(7, 3)), 2),
            (Inert((2, 1, 1), Fraction(5, 2)), 3),
        ]:
            assert pair_data(spec, p).lam == spec.delta

    def test_validation(self):
        with pytest.raises(ConfigError):
            pair_data(RationalCenter(Fraction(0), Fraction(-1)), 3)
        with pytest.raises(ConfigError):
            pair_data(Inert((1, 0, 1), Fraction(0)), 3)
        with pytest.raises(ConfigError):
            # x^2+1 = (x+1)^2 mod 2
            pair_data(Inert((1, 0, 1), Fraction(1, 2)), 2)
        with pytest.raises(ConfigError):
            pair_data(Inert((1, 0), Fraction(1)), 3)  # degree 1

    @pytest.mark.parametrize("spec,p", [
        (Inert((7, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 1), 11),
        (Inert((3, 1, 0, 0, 0, 0, 1), 1), 101),
    ], ids=["x^12+x+7-F_11", "x^6+x+3-F_101"])
    def test_generator_within_rabin_work(self, spec, p):
        # trial division would try p^(d/2) > 10^6 candidates; the guard's
        # count d^3 * bitlen(p), which bounds Ben-Or's test, is a few
        # thousand
        config = PairConfig([spec], p)
        assert config.field.q == p ** (len(spec.phi) - 1)


class TestEH:
    def test_examples(self):
        # e is the smallest integer with e*lambda integral, N = e*lambda
        # and h = p^N
        for delta, p, e, n in [
            (Fraction(0), 3, 1, 0),
            (Fraction(1, 2), 2, 2, 1),
            (Fraction(3, 2), 5, 2, 3),
            (Fraction(4), 3, 1, 4),
        ]:
            pair = pair_data(RationalCenter(Fraction(0), delta), p)
            assert (pair.lam, pair.e, pair.N) == (delta, e, n)
            assert pair.h_of(p) == p ** n

    def test_h_refused_before_the_power(self):
        # p^N has more than N*(bitlen(p) - 1) bits: a large N is refused
        # on that count, before p^N is formed
        pair = pair_data(RationalCenter(Fraction(0), Fraction(10 ** 6)), 3)
        with pytest.raises(ResourceLimitExceeded) as exc:
            pair.h_of(3)
        assert exc.value.needed == 10 ** 6 + 1
        widest = pair_data(RationalCenter(Fraction(0), Fraction(13999)), 2)
        assert widest.h_of(2) == 2 ** 13999

    def test_h_is_p_power(self):
        config = rc_config(2, [Fraction(1, 2)])
        pair = config.pairs[0]
        assert pair.h_of(2) == 2  # p^(e*lambda) = 2^1
        assert pair.e * pair.lam == pair.N


class TestWValue:
    def test_worked_example(self):
        # f = x^2y^2 + 3xy + 6x + 3y + 1 at p=3, Gauss pairs
        config = gauss_config(3, 2)
        f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
        w, contributing = w_of(config, f)
        assert w == 0
        assert contributing == [(0, 0), (2, 2)]

    def test_gauss_specializes_to_content(self, rng):
        # with all-Gauss pairs, w is exactly the Gauss content
        from liftcert.multipoly import content_valuation

        config = gauss_config(5, 2)
        for _ in range(200):
            f = random_poly(rng, 2, 4, allow_fractions=True)
            w, _ = w_of(config, f)
            assert w == content_valuation(f, 5)

    def test_eisenstein_value(self):
        config = rc_config(2, [Fraction(1, 2)])
        f = P("x^2 + 2", ("x",))
        w, contributing = w_of(config, f)
        assert w == 1
        assert contributing == [(0,), (2,)]

    def test_expansion_linear_in_degree(self):
        # phi = x at a rational centre: the digits are read off in one
        # pass; a split that rewalks the degree per digit takes minutes
        config = gauss_config(3, 1)
        start = time.perf_counter()
        table = config.expansion_table(P("x^50000 + 3", ("x",)))
        assert time.perf_counter() - start < 5
        assert sorted(table) == [(0,), (50000,)]

    def test_zero_polynomial(self):
        config = gauss_config(3, 1)
        w, contributing = w_of(config, MultiPoly.zero(1))
        assert w is None
        assert contributing == []

    def test_marginal(self):
        config = rc_config(3, [Fraction(1), Fraction(0)])
        _, _, marginals = config.valuation(config.expansion_table(P("3*x + y")))
        assert marginals[0] == 0  # the y digit wins
        assert marginals[1] == 0
        _, _, marginals = config.valuation(
            config.expansion_table(P("3*x + 9*y"))
        )
        assert marginals[0] == 2
        # for x: min(v(3) + 1*1, v(9) + 0) = 2

    def test_arity_mismatch(self):
        config = gauss_config(3, 2)
        with pytest.raises(ConfigError):
            w_of(config, P("x", ("x",)))


def _reference_table(config, f):
    """The expansion table from phi_expand of f shifted to every
    rational centre, with phi = x there."""
    g, phis = f, []
    for j, pair in enumerate(config.pairs):
        if isinstance(pair.spec, RationalCenter):
            g = g.shift(j, pair.spec.center)
            phis.append([Fraction(0), Fraction(1)])
        else:
            phis.append(list(pair.phi))
    return {idx: (a, content_valuation(a, config.p))
            for idx, a in phi_expand(g, phis).terms.items()}


class TestExponentSplit:
    @pytest.mark.parametrize("config", [c[1] for c in SPLIT_CONFIGS],
                             ids=[c[0] for c in SPLIT_CONFIGS])
    def test_matches_phi_expand(self, config, rng):
        for _ in range(150):
            f = random_poly(rng, 2, 6, max_terms=8, allow_fractions=True)
            assert config.expansion_table(f) == _reference_table(config, f)

    @pytest.mark.parametrize("config", [c[1] for c in SPLIT_CONFIGS[:2]],
                             ids=[c[0] for c in SPLIT_CONFIGS[:2]])
    def test_linear_phis_never_divide(self, config, monkeypatch, rng):
        # a rational centre's phi = x - center is a Taylor shift, after
        # which every digit is a constant read off the exponents
        def refuse(*args):
            raise AssertionError("a linear phi was divided out")

        monkeypatch.setattr(multipoly, "_divide", refuse)
        for _ in range(20):
            f = random_poly(rng, 2, 5, allow_fractions=True)
            table = config.expansion_table(f)
            assert all(a.degree() == 0 for a, _ in table.values())


class TestGenerationInvertsExpansion:
    @pytest.mark.parametrize("config", [c[1] for c in SPLIT_CONFIGS],
                             ids=[c[0] for c in SPLIT_CONFIGS])
    def test_table_of_lifting_is_its_digits(self, config, rng):
        # the expansion of generate_lifting(T) has the digit p^(s_J)
        # lift(c_J) of content s_J at e*J, and nothing else
        n, p = config.nvars, config.p
        for _ in range(30):
            T, t = liftable_residue(rng, config)
            expected = {}
            for exps, c in T.terms.items():
                s = sum(pair.N * (ti - j)
                        for pair, ti, j in zip(config.pairs, t, exps))
                lift = {}
                for y, k in c.coeffs.items():
                    x = tuple(0 if pair.y_index is None else y[pair.y_index]
                              for pair in config.pairs)
                    lift[x] = Fraction(k * p ** s)
                idx = tuple(pair.e * j for pair, j in zip(config.pairs, exps))
                expected[idx] = (MultiPoly(n, lift), s)
            assert config.expansion_table(generate_lifting(T, config)) == (
                expected)


class TestInertDivisionGuard:
    INERT = PairConfig([Inert((1, 0, 1), Fraction(1))], 3)

    def test_quadratic_division_refused_before_it_starts(self):
        # x^4000 + 3 takes 4,000,000 row operations by x^2 + 1
        start = time.perf_counter()
        with pytest.raises(ResourceLimitExceeded, match="4000000"):
            self.INERT.expansion_table(P("x^4000 + 3", ("x",)))
        assert time.perf_counter() - start < 1

    def test_guard_follows_the_limit(self):
        f = P("x^100 + 3", ("x",))  # 2,500 row operations
        table = self.INERT.expansion_table(f)
        small = PairConfig([Inert((1, 0, 1), Fraction(1))], 3, limit=2499)
        with pytest.raises(ResourceLimitExceeded,
                           match="phi-adic division work"):
            small.expansion_table(f)
        exact = PairConfig([Inert((1, 0, 1), Fraction(1))], 3, limit=2500)
        assert exact.expansion_table(f) == table

    def test_phi_x_costs_nothing(self):
        # each coefficient list in y counts its own length, so x's degree
        # costs nothing (x^2 + 1 over F_3 needs a limit of 16 for its own
        # irreducibility test)
        config = PairConfig([RationalCenter(Fraction(0), Fraction(0)),
                             Inert((1, 0, 1), Fraction(1))], 3, limit=16)
        table = config.expansion_table(P("x^5000*y^2 + 3"))
        assert sorted(table) == [(0, 0), (5000, 0), (5000, 1)]


def _fraction_walk(config, table):
    """The table walk on Fractions, each lambda_i added as it is."""
    lams = [pair.lam for pair in config.pairs]
    best, contributing, marginals = None, [], [None] * len(lams)
    for idx in sorted(table):
        cv = table[idx][1]
        value = cv + sum(i * lam for i, lam in zip(idx, lams))
        for k, (i, lam) in enumerate(zip(idx, lams)):
            if marginals[k] is None or cv + i * lam < marginals[k]:
                marginals[k] = cv + i * lam
        if best is None or value < best:
            best, contributing = value, [idx]
        elif value == best:
            contributing.append(idx)
    return best, contributing, marginals


# ramified configurations whose e differ, so the walk scales by lcm(e_i)
RAMIFIED = [
    rc_config(3, [Fraction(1, 2), Fraction(1, 3)]),
    PairConfig([RationalCenter(Fraction(1), Fraction(1, 2)),
                RationalCenter(Fraction(-1, 2), Fraction(2, 3))], 2),
    PairConfig([Inert((1, 0, 1), Fraction(1, 2)),
                RationalCenter(Fraction(0), Fraction(1, 3))], 3),
]


@given(st.sampled_from(RAMIFIED), st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(-60, 60) | st.fractions(-20, 20, max_denominator=12),
    max_size=8))
def test_integer_walk_matches_fraction_walk(config, terms):
    table = config.expansion_table(MultiPoly(2, terms))
    assert config.valuation(table) == _fraction_walk(config, table)


@given(st.sampled_from(RAMIFIED + [gauss_config(3, 2)]), st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(-60, 60) | st.fractions(-20, 20, max_denominator=12),
    max_size=8), st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_integral_values_are_ints(config, terms, t):
    # w, the marginals and the lifting target are exact rationals in
    # their stored form: an int when integral, else a Fraction
    f = MultiPoly(2, terms)
    assume(not f.is_zero)
    w, _, marginals = config.valuation(config.expansion_table(f))
    for value in [w, *marginals, config.lifting_target(t)]:
        assert type(value) is int or value.denominator > 1, value


class TestValuationLaws:
    CONFIGS = [
        ("gauss", lambda: gauss_config(3, 2)),
        ("ramified", lambda: rc_config(2, [Fraction(1, 2), Fraction(1, 3)])),
        ("inert", lambda: PairConfig(
            [Inert((1, 0, 1), Fraction(1, 2)),
             RationalCenter(Fraction(0), Fraction(1))], 3)),
    ]

    @pytest.mark.parametrize("label,make", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_multiplicative(self, label, make, rng):
        config = make()
        for _ in range(300):
            g = random_poly(rng, 2, 3)
            h = random_poly(rng, 2, 3)
            wg, _ = w_of(config, g)
            wh, _ = w_of(config, h)
            wgh, _ = w_of(config, g * h)
            assert wgh == wg + wh

    @pytest.mark.parametrize("label,make", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_ultrametric(self, label, make, rng):
        config = make()
        for _ in range(300):
            g = random_poly(rng, 2, 3)
            h = random_poly(rng, 2, 3)
            wg, _ = w_of(config, g)
            wh, _ = w_of(config, h)
            ws, _ = w_of(config, g + h)
            assert ws >= min(wg, wh)

    @pytest.mark.parametrize("label,make", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_value_group_denominators(self, label, make, rng):
        config = make()
        lcm_e = math.lcm(*(pair.e for pair in config.pairs))
        for _ in range(200):
            f = random_poly(rng, 2, 4)
            w, _ = w_of(config, f)
            assert w.denominator in (
                d for d in range(1, lcm_e + 1) if lcm_e % d == 0
            )


class TestResidue:
    def test_worked_example(self):
        config = gauss_config(3, 2)
        f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
        residue = residue_at(config, f)
        assert residue.to_str() == "Z1^2*Z2^2 + 1"

    def test_eisenstein_residue(self):
        config = rc_config(2, [Fraction(1, 2)])
        f = P("x^2 + 2", ("x",))
        residue = residue_at(config, f)
        assert residue.to_str() == "Z1 + 1"

    def test_inert_residue_carries_generator(self):
        # phi = x^2+1 at p=3 with delta = 1/2, so e = 2 and t = 1 reads
        # the phi^2 digit; f = phi^2 + 3x puts the image of x (the
        # generator y1) in the constant slot of the residue
        config = PairConfig([Inert((1, 0, 1), Fraction(1, 2))], 3)
        f = P("x^4 + 2*x^2 + 3*x + 1", ("x",))
        residue = residue_at(config, f)
        assert residue.to_str() == "Z1 + y1"

    def test_residue_multiplicative_on_liftings(self):
        # the residue of a product of liftings is the product of the
        # residues (valuation-graded multiplicativity)
        config = gauss_config(3, 2)
        f = P("x*y + 1")
        g = P("x*y + 2")
        rf = residue_at(config, f)
        rg = residue_at(config, g)
        rfg = residue_at(config, f * g)
        assert rfg == rf * rg


def _reducing_residue(config, table, contributing):
    """config.residue built through ResidueField.element, the reducing
    constructor: each digit p^(-c) * a on Fractions, every inert x_j
    sent to y_j, and the image reduced by the generators."""
    p, field = config.p, config.field
    terms = {}
    for idx in contributing:
        a, c = table[idx]
        coeffs = {}
        for exps, q in a.terms.items():
            y = [0] * field.nyvars
            for e, pair in zip(exps, config.pairs):
                if pair.y_index is None:
                    assert e == 0
                else:
                    y[pair.y_index] = e
            value = Fraction(q) / Fraction(p) ** c
            coeffs[tuple(y)] = value.numerator * pow(value.denominator, -1, p)
        z = tuple(i // pair.e for i, pair in zip(idx, config.pairs))
        terms[z] = field.element(coeffs)
    return ResiduePoly(field, config.nvars, terms)


# inert pairs over F_4, F_9 and F_64 = F_4 * F_8, the ramified walks'
# configurations, and the roundtrip benchmark's five
IMAGE_CONFIGS = [
    PairConfig([Inert((1, 1, 1), Fraction(1, 2)),
                Inert((1, 1, 0, 1), Fraction(1))], 2),
    PairConfig([Inert((1, 0, 1), Fraction(1, 2))], 3),
    *RAMIFIED,
    PairConfig([RationalCenter(Fraction(1), Fraction(1, 2)),
                RationalCenter(Fraction(-1), Fraction(1))], 3),
    PairConfig([Inert((1, 0, 1), Fraction(1, 2)),
                RationalCenter(Fraction(1, 2), Fraction(1, 2))], 3),
    PairConfig([Inert((1, 1, 1), Fraction(1, 2)),
                RationalCenter(Fraction(-1), Fraction(1, 3))], 2),
    PairConfig([RationalCenter(Fraction(1, 2), Fraction(1)),
                RationalCenter(Fraction(-1), Fraction(1, 2))], 5),
    PairConfig([RationalCenter(Fraction(1), Fraction(1, 3))], 3),
]


@pytest.mark.parametrize("config", IMAGE_CONFIGS)
def test_residue_images_need_no_reduction(config, rng):
    # the images are built unreduced: a digit's degree in an inert x_j
    # is below the generator's degree
    for seed in range(12):
        T, _ = liftable_residue(rng, config)
        f = generate_lifting(T, config, seed)
        for g in (f, random_poly(rng, config.nvars, 5, allow_fractions=True)):
            table = config.expansion_table(g)
            _, contributing, _ = config.valuation(table)
            residue = config.residue(table, contributing)
            assert residue == _reducing_residue(config, table, contributing)
        assert residue_at(config, f) == T


class TestPairJson:
    def test_round_trip(self):
        specs = [
            RationalCenter(Fraction(1, 2), Fraction(0)),
            Inert((1, 0, 1), Fraction(1, 3)),
        ]
        doc = pair_specs_to_json(specs, 3)
        back, p = pair_specs_from_json(doc)
        assert p == 3
        assert back == specs

    def test_document_shape(self):
        doc = pair_specs_to_json(
            [RationalCenter(Fraction(0), Fraction(0))], 3
        )
        assert doc == {
            "prime": 3,
            "pairs": [
                {"kind": "rational_center", "center": "0", "delta": "0"}
            ],
        }

    def test_malformed(self):
        with pytest.raises(ConfigError):
            pair_specs_from_json({"prime": 3, "pairs": [{"kind": "nope"}]})
        with pytest.raises(ConfigError):
            pair_specs_from_json({"pairs": []})

    @pytest.mark.parametrize("prime", [3.0, True], ids=["float", "bool"])
    def test_inexact_prime(self, prime):
        with pytest.raises(ConfigError, match="prime must be a JSON integer"):
            pair_specs_from_json({"prime": prime, "pairs": []})

    @pytest.mark.parametrize("center,value", [
        ("-3/4", Fraction(-3, 4)), ("+2", 2), ("007/010", Fraction(7, 10)),
        (-5, -5),
    ])
    def test_rational_grammar(self, center, value):
        specs, _ = pair_specs_from_json({"prime": 3, "pairs": [
            {"kind": "rational_center", "center": center, "delta": "0"}]})
        assert specs[0].center == value

    @pytest.mark.parametrize("entry", ["1/2", "2.0", " 2"])
    def test_phi_entry_is_an_integer(self, entry):
        with pytest.raises(ConfigError, match='phi entry must be a JSON '
                           'integer or a string "a", got'):
            pair_specs_from_json({"prime": 3, "pairs": [
                {"kind": "inert", "phi": [1, entry, 1], "delta": "1"}]})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(
            '{"prime": 2, "pairs": [{"kind": "rational_center", '
            '"center": "0", "delta": "1/2"}]}'
        )
        specs, p = load_pair_specs(path)
        assert p == 2
        assert specs == [RationalCenter(Fraction(0), Fraction(1, 2))]
