"""Acceptance suite: worked-example reproduction, the Eisenstein family,
generative round trips, oracle agreement, valuation laws, and negative
controls.  Each criterion prints a single PASS/FAIL line."""

import itertools
import math
import random
import time
from fractions import Fraction

from liftcert import (
    Inert,
    MultiPoly,
    PairConfig,
    RationalCenter,
    ResiduePoly,
    brute_factor,
    certify_irreducible,
    check_lifting,
    generate_lifting,
    is_irreducible_multivariate,
    phi_expand,
    reconstruct,
)
from liftcert.exactnum import Val, vp

from conftest import P, gauss_config, random_poly, rc_config


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_worked_example():
    """Certify the worked bivariate quartic end to end, exactly, < 1 s."""
    start = time.perf_counter()
    config = gauss_config(3, 2)
    f = P("x^2*y^2 + 3*x*y + 6*x + 3*y + 1")
    cert = certify_irreducible(f, config, names=["x", "y"])
    elapsed = time.perf_counter() - start

    ok = (
        cert.certified
        and cert.t == (2, 2)
        and cert.residue.to_str() == "Z1^2*Z2^2 + 1"
        and [pair.e for pair in config.pairs] == [1, 1]
        and [pair.h_of(3) for pair in config.pairs] == [1, 1]
        and elapsed < 1.0
    )
    _report(1, ok, f"verdict={cert.verdict}, T={cert.residue.to_str()}, "
                   f"t={cert.t}, {elapsed:.3f}s (< 1s)")


def test_criterion_2_eisenstein_family():
    """Every small Eisenstein polynomial certifies via (0, 1/deg); < 30 s."""
    start = time.perf_counter()
    total = 0
    failures = []
    for p in (2, 3, 5):
        constants = [p] + ([3 * p] if vp(3 * p, p) == Val.finite(1) else [])
        for deg in range(2, 6):
            config = rc_config(p, [Fraction(1, deg)])
            for middles in itertools.product((0, p, 2 * p), repeat=deg - 1):
                for const in constants:
                    coeffs = [const, *middles, 1]
                    f = MultiPoly.from_univariate(1, 0, coeffs)
                    cert = certify_irreducible(f, config)
                    total += 1
                    if not cert.certified:
                        failures.append((p, coeffs, cert.verdict))
    elapsed = time.perf_counter() - start
    ok = not failures and total >= 500 and elapsed < 30.0
    _report(2, ok, f"{total} Eisenstein instances, {len(failures)} failures, "
                   f"{elapsed:.1f}s (< 30s)")


def _sample_residues(config, rng, count, degree_plan):
    """Random monic irreducible residue polynomials that admit liftings."""
    field = config.field
    n = config.nvars
    elems = list(field.elements())
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 10000, "sampling stalled"
        t = rng.choice(degree_plan)
        terms = {tuple(t): field.one}
        for exps in itertools.product(*(range(ti + 1) for ti in t)):
            if exps == tuple(t):
                continue
            c = rng.choice(elems)
            if not c.is_zero:
                terms[exps] = c
        T = ResiduePoly(field, n, terms)
        if any(T.degree_in(i) < t[i] for i in range(n)):
            continue
        if any(T.is_single_variable(i) for i in range(n)):
            continue
        # liftability: coefficients at an inert variable's full degree
        # must not involve that variable's generator
        liftable = True
        for exps, c in T.terms.items():
            for i, pair in enumerate(config.pairs):
                if pair.y_index is None or exps[i] < t[i]:
                    continue
                if exps == tuple(t):
                    continue
                if any(e[pair.y_index] != 0 for e in c.coeffs):
                    liftable = False
        if not liftable:
            continue
        if is_irreducible_multivariate(T):
            out.append(T)
    return out


def test_criterion_3_generative_round_trip():
    """certify(generate(T, seed)) recovers T for 100 sampled irreducible
    residues across residue fields F_2..F_9 and e_i in {1,2,3}; < 2 min."""
    start = time.perf_counter()
    rng = random.Random(31)
    plans = [
        # (config, sample count, allowed residue degree vectors)
        (rc_config(2, [Fraction(1)]), 8, [(1,), (2,)]),
        (rc_config(2, [Fraction(1, 2)]), 8, [(1,), (2,)]),
        (rc_config(2, [Fraction(1, 2), Fraction(1, 3)]), 12,
         [(1, 1), (2, 1), (1, 2), (2, 2)]),
        (gauss_config(3, 2), 12, [(1, 1), (2, 1), (2, 2)]),
        (rc_config(3, [Fraction(1), Fraction(1, 3)]), 12,
         [(1, 1), (2, 2)]),
        (rc_config(5, [Fraction(1, 2)]), 8, [(1,), (2,)]),
        (rc_config(5, [Fraction(1, 2), Fraction(1)]), 10, [(1, 1), (2, 1)]),
        (PairConfig([Inert((1, 1, 1), Fraction(1, 2))], 2), 8, [(1,), (2,)]),
        (PairConfig([Inert((1, 1, 1), Fraction(1, 2)),
                     RationalCenter(Fraction(0), Fraction(1, 3))], 2), 12,
         [(1, 1), (2, 1), (2, 2)]),
        (PairConfig([Inert((1, 0, 1), Fraction(1, 2)),
                     RationalCenter(Fraction(0), Fraction(1, 3))], 3), 10,
         [(1, 1)] * 4 + [(2, 2)]),
    ]
    total = 0
    failures = []
    for config, count, degree_plan in plans:
        for T in _sample_residues(config, rng, count, degree_plan):
            total += 1
            for seed in (0, 1, 2):
                f = generate_lifting(T, config, seed)
                cert = certify_irreducible(f, config)
                if not (cert.certified and cert.residue == T):
                    failures.append((T.to_str(), seed, cert.verdict))
    elapsed = time.perf_counter() - start
    ok = total == 100 and not failures and elapsed < 120.0
    _report(3, ok, f"{total} residues x 3 seeds, {len(failures)} failures, "
                   f"{elapsed:.1f}s (< 2min)")


def test_criterion_4_oracle_agreement():
    """Exhaustive x^2y^2 + a*xy + b*x + c*y + d family at p=3: certified
    implies oracle-irreducible; < 10 min."""
    start = time.perf_counter()
    config = gauss_config(3, 2)
    certified = 0
    factored = 0
    disagreements = []
    for a, b, c, d in itertools.product(range(9), repeat=4):
        f = MultiPoly(2, {
            (2, 2): Fraction(1), (1, 1): Fraction(a), (1, 0): Fraction(b),
            (0, 1): Fraction(c), (0, 0): Fraction(d),
        })
        cert = certify_irreducible(f, config)
        oracle = brute_factor(f)
        if cert.certified:
            certified += 1
            if not oracle.irreducible:
                disagreements.append(((a, b, c, d), "certified but factors"))
        if not oracle.irreducible:
            factored += 1
            if cert.certified:
                disagreements.append(((a, b, c, d), "factors but certified"))
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 600.0
    _report(4, ok, f"6561 instances: {certified} certified, {factored} "
                   f"factored by the oracle, {len(disagreements)} "
                   f"disagreements, {elapsed:.1f}s (< 10min)")


def test_criterion_5_valuation_laws():
    """w is a valuation; expansions reconstruct; the value group divides
    lcm(e_i); divisibility bookkeeping never trips on liftings."""
    start = time.perf_counter()
    rng = random.Random(47)
    classes = {
        "gauss": gauss_config(3, 2),
        "ramified": rc_config(2, [Fraction(1, 2), Fraction(1, 3)]),
        "inert": PairConfig([Inert((1, 0, 1), Fraction(1, 2)),
                             RationalCenter(Fraction(0), Fraction(1))], 3),
    }
    problems = []
    for label, config in classes.items():
        lcm_e = math.lcm(*(pair.e for pair in config.pairs))
        for _ in range(1000):
            g = random_poly(rng, 2, 2, max_terms=4)
            h = random_poly(rng, 2, 2, max_terms=4)
            wg, _, _ = config.valuation(config.expansion_table(g))
            wh, _, _ = config.valuation(config.expansion_table(h))
            wgh, _, _ = config.valuation(config.expansion_table(g * h))
            if wgh != wg + wh:
                problems.append((label, "multiplicativity", g, h))
            ws, _, _ = config.valuation(config.expansion_table(g + h))
            if not (g + h).is_zero and ws < min(wg, wh):
                problems.append((label, "ultrametric", g, h))
            for w in (wg, wh, wgh):
                if (lcm_e * w.finite_value).denominator != 1:
                    problems.append((label, "value group", w))

    # expansion round trips on 1000 random polynomials
    phi_choices = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(1)],
                   [Fraction(1), Fraction(0), Fraction(1)]]
    for _ in range(1000):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, 5)
        phis = [rng.choice(phi_choices) for _ in range(n)]
        if reconstruct(phi_expand(f, phis)) != f:
            problems.append(("expansion", f))

    # the contributing-index divisibility check of condition (iii)
    # passes on generated liftings
    config = classes["inert"]
    field = config.field
    y = field.element({(1,): 1})
    T = ResiduePoly(field, 2, {(1, 1): field.one, (0, 0): y})
    for seed in range(10):
        f = generate_lifting(T, config, seed)
        report = check_lifting(f, config)
        if not report.ok or report.residue != T:
            problems.append(("divisibility", seed))

    elapsed = time.perf_counter() - start
    ok = not problems
    _report(5, ok, f"3 classes x 1000 law samples + 1000 expansion round "
                   f"trips, {len(problems)} violations, {elapsed:.1f}s")


def test_criterion_6_negative_controls():
    """The three canonical non-certifying inputs produce the right
    verdicts with their mismatch quantities recorded."""
    results = []

    cert = certify_irreducible(P("x^2*y^2 - 1"), gauss_config(3, 2))
    results.append(cert.verdict == "ResidueReducible")

    config = rc_config(2, [Fraction(1, 2)])
    cert = certify_irreducible(P("x^2 + 2*x + 4", ("x",)), config)
    results.append(cert.verdict == "ResidueIsVariable")

    cert = certify_irreducible(P("2*x", ("x",)), config)
    results.append(cert.verdict == "NotALifting")
    # the mismatched quantities are printed in the reason
    results.append(cert.reason is not None and "1" in cert.reason
                   and "2" in cert.reason)

    ok = all(results)
    _report(6, ok, "ResidueReducible / ResidueIsVariable / NotALifting "
                   f"with quantities, {results}")
