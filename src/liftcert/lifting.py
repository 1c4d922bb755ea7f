"""Lifting verification and irreducibility certificates.

A polynomial f is a lifting of a residue polynomial T when three
conditions hold: the degree bookkeeping (total and per-variable degrees
equal e_i * t_i * m_i, with leading coefficient 1), the valuation
bookkeeping (w(f) and every marginal equal the target sum of
e_i * t_i * lambda_i), and the normalized residue of f is exactly T.
A lifting of a monic irreducible T that is not a coordinate Z_i is
irreducible over the rationals; `certify_irreducible` checks the whole
chain and records every compared quantity in an audit certificate.

The module also runs the definition generatively: `generate_lifting`
builds a polynomial from T whose certificate is guaranteed to close.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .errors import ConfigError, LiftcertError
from .exactnum import Val, check_prime, vp
from .finitefield import (
    DEFAULT_CANDIDATE_LIMIT,
    ResiduePoly,
    is_irreducible_multivariate,
)
from .multipoly import MultiPoly, grlex_key
from .valuation import PairConfig, RationalCenter, pair_specs_to_json

VERDICT_CERTIFIED = "Certified"
VERDICT_NOT_A_LIFTING = "NotALifting"
VERDICT_RESIDUE_REDUCIBLE = "ResidueReducible"
VERDICT_RESIDUE_IS_VARIABLE = "ResidueIsVariable"
VERDICT_RESIDUE_NOT_MONIC = "ResidueNotMonic"


class GenerationError(ConfigError):
    """The requested residue polynomial admits no lifting as given."""


@dataclass
class CheckResult:
    name: str
    lhs: str
    rhs: str
    passed: bool

    def to_json_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }


@dataclass
class CheckReport:
    """Outcome of the three lifting conditions, first-failure discipline."""

    checks: list
    t: tuple = None
    residue: ResiduePoly = None
    failed: CheckResult = None
    condition: str = None  # "i", "ii" or "iii" when failed

    @property
    def ok(self):
        return self.failed is None

    @property
    def reason(self):
        """The first failed check, as printed in diagnoses."""
        if self.failed is None:
            return None
        return (
            f"condition ({self.condition}) failed: {self.failed.name}: "
            f"{self.failed.lhs} != {self.failed.rhs}"
        )


def _record(checks, name, lhs, rhs, passed):
    result = CheckResult(name, str(lhs), str(rhs), passed)
    checks.append(result)
    return result


def check_lifting(f: MultiPoly, config: PairConfig) -> CheckReport:
    """Verify the lifting conditions; stop at the first failed condition.

    t_i is derived from the degrees (deg_{x_i} f = e_i t_i m_i forces
    it), so a degree that is not an exact positive multiple of e_i m_i
    is already a condition (i) failure.
    """
    if f.is_zero:
        raise ConfigError("f must be nonzero")
    config._check_arity(f)
    checks = []
    n = config.nvars

    # condition (i): degrees and monicity
    t = []
    for i, pair in enumerate(config.pairs):
        d = f.degree_in(i)
        unit = pair.e * pair.m
        if d < unit or d % unit != 0:
            result = _record(
                checks,
                f"degree_in_x{i + 1}",
                d,
                f"a positive multiple of e_{i + 1}*m_{i + 1} = {unit}",
                False,
            )
            return CheckReport(checks, failed=result, condition="i")
        ti = d // unit
        _record(checks, f"degree_in_x{i + 1}", d, unit * ti, True)
        t.append(ti)
    t = tuple(t)

    total_target = sum(
        pair.e * ti * pair.m for pair, ti in zip(config.pairs, t)
    )
    result = _record(
        checks, "total_degree", f.degree(), total_target,
        f.degree() == total_target,
    )
    if not result.passed:
        return CheckReport(checks, failed=result, condition="i")

    lead_exps = tuple(
        pair.e * ti * pair.m for pair, ti in zip(config.pairs, t)
    )
    lead = f.coeff(lead_exps)
    result = _record(
        checks, "monic_leading_coefficient", lead, 1, lead == 1
    )
    if not result.passed:
        return CheckReport(checks, failed=result, condition="i")

    # condition (ii): total and marginal valuations
    table = config.expansion_table(f)
    target = config.lifting_target(t)
    w, contributing, marginals = config.valuation(table)
    result = _record(checks, "w_total", w, target, w == Val.finite(target))
    if not result.passed:
        return CheckReport(checks, t=t, failed=result, condition="ii")
    for i, (pair, marginal) in enumerate(zip(config.pairs, marginals)):
        marginal_target = pair.e * t[i] * pair.lam
        result = _record(
            checks, f"w_marginal_x{i + 1}", marginal, marginal_target,
            marginal == Val.finite(marginal_target),
        )
        if not result.passed:
            return CheckReport(checks, t=t, failed=result, condition="ii")

    # condition (iii): contributing indices divisible by e (only a failure
    # is recorded: two ramified pairs whose e share a factor can break
    # it), then residue degrees and monicity
    for idx in contributing:
        for i, (i_j, pair) in enumerate(zip(idx, config.pairs)):
            if i_j % pair.e:
                result = _record(
                    checks, f"contributing_index_x{i + 1}", f"{i_j} in {idx}",
                    f"a multiple of e_{i + 1} = {pair.e}", False,
                )
                return CheckReport(checks, t=t, failed=result, condition="iii")
    residue = config.residue(table, t, w, contributing)
    for i in range(n):
        d = residue.degree_in(i)
        result = _record(
            checks, f"residue_degree_Z{i + 1}", d, t[i], d == t[i]
        )
        if not result.passed:
            return CheckReport(checks, t=t, failed=result, condition="iii")
    lead_ok = residue.coeff(t) == config.field.one
    result = _record(
        checks, "residue_monic",
        residue.coeff(t).to_str(), "1", lead_ok,
    )
    if not result.passed:
        return CheckReport(
            checks, t=t, residue=residue, failed=result, condition="iii"
        )

    return CheckReport(checks, t=t, residue=residue)


@dataclass
class LiftingCertificate:
    """Full audit record of the lifting checks and the final verdict."""

    input_text: str
    prime: int
    pair_specs_json: dict
    variable_table: list
    t: tuple
    residue: ResiduePoly
    checks: list
    verdict: str
    reason: str = None
    version: str = __version__

    @property
    def certified(self):
        return self.verdict == VERDICT_CERTIFIED

    def to_json_dict(self):
        doc = {
            "input": self.input_text,
            "prime": self.prime,
            "pairs": self.pair_specs_json["pairs"],
            "variables": self.variable_table,
            "t": list(self.t) if self.t is not None else None,
            "T": residue_to_json(self.residue)
            if self.residue is not None
            else None,
            "checks": [c.to_json_dict() for c in self.checks],
            "verdict": self.verdict,
        }
        if self.reason is not None:
            doc["reason"] = self.reason
        doc["version"] = self.version
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _variable_table(config: PairConfig, names=None):
    table = []
    for i, pair in enumerate(config.pairs):
        name = names[i] if names else f"x{i + 1}"
        phi = MultiPoly.from_univariate(config.nvars, i, pair.phi)
        table.append(
            {
                "variable": name,
                "phi": phi.to_str(names),
                "m": pair.m,
                "lambda": str(pair.lam),
                "e": pair.e,
                "N": pair.N,
                "h": str(pair.h_of(config.p)),
            }
        )
    return table


def certify_irreducible(
    f: MultiPoly,
    config: PairConfig,
    limit: int = DEFAULT_CANDIDATE_LIMIT,
    names=None,
) -> LiftingCertificate:
    """Run the lifting checks and, on a lifting, decide irreducibility
    of the residue; a Certified verdict means f is irreducible over the
    p-adics and hence over the rationals."""
    report = check_lifting(f, config)
    base = dict(
        input_text=f.to_str(names),
        prime=config.p,
        pair_specs_json=pair_specs_to_json(config.specs, config.p),
        variable_table=_variable_table(config, names),
        t=report.t,
        residue=report.residue,
        checks=report.checks,
    )
    if not report.ok:
        if report.failed.name == "residue_monic":
            verdict = VERDICT_RESIDUE_NOT_MONIC
        else:
            verdict = VERDICT_NOT_A_LIFTING
        return LiftingCertificate(
            verdict=verdict, reason=report.reason, **base
        )

    residue = report.residue
    for i in range(config.nvars):
        excluded = residue.is_single_variable(i)
        _record(
            report.checks, f"residue_not_Z{i + 1}",
            residue.to_str(), f"!= Z{i + 1}", not excluded,
        )
        if excluded:
            return LiftingCertificate(
                verdict=VERDICT_RESIDUE_IS_VARIABLE,
                reason=f"residue is the excluded coordinate Z{i + 1}",
                **base,
            )
    irreducible = _cached_irreducible(residue, limit)
    _record(
        report.checks, "residue_irreducible",
        residue.to_str(), "irreducible", irreducible,
    )
    if not irreducible:
        return LiftingCertificate(
            verdict=VERDICT_RESIDUE_REDUCIBLE,
            reason="residue polynomial factors over the residue field",
            **base,
        )
    return LiftingCertificate(verdict=VERDICT_CERTIFIED, **base)


_irreducibility_cache = {}


def _cached_irreducible(residue: ResiduePoly, limit: int) -> bool:
    # residues recur across large corpora (they only depend on f mod p)
    key = (residue, limit)
    if key not in _irreducibility_cache:
        _irreducibility_cache[key] = is_irreducible_multivariate(
            residue, limit
        )
    return _irreducibility_cache[key]


# ---------------------------------------------------------------------
# generative direction


def generate_lifting(
    T: ResiduePoly, config: PairConfig, seed: int = 0
) -> MultiPoly:
    """Construct a lifting of T: canonical coefficient representatives,
    p-power scaling, and phi powers; with seed != 0, sparse noise terms
    of strictly higher valuation are added (residue provably unchanged,
    re-verified before returning)."""
    if T.field != config.field:
        raise ConfigError("T's residue field does not match the pairs")
    if T.nvars != config.nvars:
        raise ConfigError("T's variable count does not match the pairs")
    n = config.nvars
    t = tuple(T.degree_in(i) for i in range(n))
    if any(ti < 1 for ti in t):
        raise GenerationError(
            "T must have degree >= 1 in every Z_i; "
            f"degrees are {list(t)}"
        )
    if T.coeff(t) != config.field.one:
        raise GenerationError("T must be monic: coefficient of prod Z_i^t_i is not 1")
    for i in range(n):
        if T.is_single_variable(i):
            raise GenerationError(
                f"T = Z{i + 1} is excluded from lifting generation"
            )
    for exps, c in T.terms.items():
        for i, pair in enumerate(config.pairs):
            if pair.y_index is None or exps[i] < t[i] or exps == t:
                continue
            if any(e[pair.y_index] != 0 for e in c.coeffs):
                raise GenerationError(
                    f"no lifting exists: coefficient of Z-exponent "
                    f"{exps} reaches degree t_{i + 1} in Z{i + 1} but "
                    f"involves the inert generator of variable {i + 1}, "
                    "which would overflow the per-variable degree bound"
                )

    p = config.p
    phis = [
        MultiPoly.from_univariate(n, i, pair.phi)
        for i, pair in enumerate(config.pairs)
    ]
    f = MultiPoly.zero(n)
    for exps, c in T.terms.items():
        coeff_poly = _lift_element(c, config)
        s = sum(
            pair.N * (ti - ji)
            for pair, ti, ji in zip(config.pairs, t, exps)
        )
        term = coeff_poly.scale(Fraction(p) ** s)
        for i, ji in enumerate(exps):
            if ji:
                term = term * phis[i] ** (config.pairs[i].e * ji)
        f = f + term

    if seed == 0:
        return f

    rng = random.Random(seed)
    target = config.lifting_target(t)
    assert target.denominator == 1
    level = int(target) + 1
    bounds = [
        pair.e * ti * pair.m - 1 for pair, ti in zip(config.pairs, t)
    ]
    monomials = [
        tuple(rng.randint(0, b) for b in bounds)
        for _ in range(rng.randint(1, 3))
    ]
    coeffs = [rng.randint(1, max(p - 1, 1)) for _ in monomials]
    for _ in range(60):
        noise = MultiPoly(
            n,
            {
                e: Fraction(c * p ** level)
                for e, c in zip(monomials, coeffs)
            },
        )
        g = f + noise
        report = check_lifting(g, config)
        if report.ok and report.residue == T:
            return g
        level += 1
    raise LiftcertError("could not place noise terms above the lifting level")


def _lift_element(c, config: PairConfig):
    """Canonical integer-polynomial representative of a residue element,
    with the inert generators mapped back to their variables."""
    n = config.nvars
    terms = {}
    for y_exp, k in c.coeffs.items():
        exps = [0] * n
        for i, pair in enumerate(config.pairs):
            if pair.y_index is not None:
                exps[i] = y_exp[pair.y_index]
        terms[tuple(exps)] = Fraction(k)
    return MultiPoly(n, terms)


# ---------------------------------------------------------------------
# pair suggestion heuristics


def suggest_pairs(f: MultiPoly, p: int, max_configs: int = 16):
    """Candidate pair configurations to try with certify: always the
    all-Gauss one, plus rational centers at 0 with deltas taken from
    each variable's lower Newton-polygon slopes (other variables at 0)."""
    check_prime(p)
    if f.is_zero:
        raise ConfigError("f must be nonzero")
    n = f.nvars
    per_var = []
    for i in range(n):
        # f with every other variable set to 0
        u = MultiPoly(n, {
            e: c for e, c in f.terms.items()
            if not any(k for j, k in enumerate(e) if j != i)
        })
        deltas = [Fraction(0)]
        for slope in _newton_slopes(u, i, p):
            if slope > 0 and slope not in deltas:
                deltas.append(slope)
        per_var.append(deltas)
    configs = []
    for combo in itertools.product(*per_var):
        configs.append(
            [RationalCenter(Fraction(0), delta) for delta in combo]
        )
        if len(configs) >= max_configs:
            break
    return configs


def _newton_slopes(u: MultiPoly, i: int, p: int):
    """Negated slopes of the lower Newton polygon of a univariate
    restriction; these are the candidate valuations of roots."""
    points = []
    for exps, c in u.terms.items():
        v = vp(c, p)
        points.append((exps[i], v.finite_value))
    points.sort()
    if len(points) < 2:
        return []
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only lower-convex turns
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.append(Fraction(y1 - y2, x2 - x1))
    return slopes


# ---------------------------------------------------------------------
# residue polynomial serialization (wire format)


def residue_to_json(T: ResiduePoly) -> dict:
    coeffs = []
    for exps in sorted(T.terms, key=grlex_key, reverse=True):
        coeffs.append(
            {"exp": list(exps), "c": T.terms[exps].to_str()}
        )
    return {"p": T.field.p, "coeffs": coeffs, "text": T.to_str()}


def residue_from_json(doc: dict, config: PairConfig) -> ResiduePoly:
    from .parse import parse_polynomial

    fld = config.field
    try:
        if doc.get("p") != fld.p:
            raise ConfigError(
                f"residue document prime {doc.get('p')} does not match {fld.p}"
            )
        ynames = [f"y{k + 1}" for k in range(fld.nyvars)]
        terms = {}
        for entry in doc["coeffs"]:
            exps = tuple(int(e) for e in entry["exp"])
            if len(exps) != config.nvars:
                raise ConfigError(f"exponent {entry['exp']} has wrong arity")
            poly = parse_polynomial(entry["c"], ynames)
            coeffs = {}
            for e, c in poly.terms.items():
                if c.denominator != 1:
                    raise ConfigError(
                        f"residue coefficient {entry['c']} is not integral"
                    )
                coeffs[e] = c.numerator
            terms[exps] = fld.element(coeffs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed residue document: {exc}") from exc
    return ResiduePoly(fld, config.nvars, terms)
