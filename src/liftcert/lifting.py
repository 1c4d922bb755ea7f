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

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import __version__
from .errors import ConfigError, ResourceLimitExceeded
from .exactnum import check_prime, rational, vp
from .finitefield import ResiduePoly, is_irreducible_multivariate, residue_text
from .multipoly import MultiPoly, PhiExpansion, reconstruct
from .parse import MAX_COEFF_BITS, MAX_DEGREE
from .valuation import (
    PairConfig,
    RationalCenter,
    _json_list,
    _json_number,
    _json_object,
    pair_specs_to_json,
)

VERDICT_CERTIFIED = "Certified"
VERDICT_NOT_A_LIFTING = "NotALifting"
VERDICT_RESIDUE_REDUCIBLE = "ResidueReducible"
VERDICT_RESIDUE_IS_VARIABLE = "ResidueIsVariable"


class GenerationError(ConfigError):
    """The requested residue polynomial admits no lifting as given."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    lhs: str
    rhs: str
    passed: bool

    @functools.cached_property
    def json(self):
        """The row as a certificate prints it, nested at four spaces."""
        encode = encode_basestring_ascii
        return _CHECK_ROW % (encode(self.name), encode(self.lhs),
                             encode(self.rhs),
                             "true" if self.passed else "false")


# the bound of the row and residue caches: it keeps a long run's memory
# flat
RESIDUE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=RESIDUE_CACHE_SIZE, typed=True)
def _row(name, lhs, rhs, passed) -> CheckResult:
    # a passing row's text depends only on the configuration and the
    # degrees, so a whole family shares its rows, each rendered once;
    # typed, since an int and an equal bool print differently
    return CheckResult(name, str(lhs), str(rhs), passed)


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


def check_lifting(f: MultiPoly, config: PairConfig) -> CheckReport:
    """Verify the lifting conditions; stop at the first failed check.

    Every row goes through `check`, which marks the report failed at the
    first row that does not pass.  t_i is derived from the degrees
    (deg_{x_i} f = e_i t_i m_i forces it), so a degree that is not an
    exact positive multiple of e_i m_i is already a condition (i)
    failure.  The report carries t once condition (i) holds, and the
    residue only when every check passed.
    """
    if f.is_zero:
        raise ConfigError("f must be nonzero")
    config._check_arity(f)
    report = CheckReport([])

    def check(condition, name, lhs, rhs, passed):
        result = _row(name, lhs, rhs, passed)
        report.checks.append(result)
        if not passed:
            report.failed, report.condition = result, condition
        return passed

    # condition (i): degrees and monicity, at the corner monomial x^d
    d = tuple(map(max, zip(*f.terms)))
    for i, (pair, di) in enumerate(zip(config.pairs, d)):
        unit = pair.e * pair.m
        ok = di >= unit and di % unit == 0
        rhs = di if ok else (
            f"a positive multiple of e_{i + 1}*m_{i + 1} = {unit}")
        if not check("i", f"degree_in_x{i + 1}", di, rhs, ok):
            return report
    total, lead = f.degree(), f.coeff(d)
    if not (check("i", "total_degree", total, sum(d), total == sum(d))
            and check("i", "monic_leading_coefficient", lead, 1, lead == 1)):
        return report
    report.t = t = tuple(di // (pair.e * pair.m)
                         for pair, di in zip(config.pairs, d))

    # condition (ii): total and marginal valuations
    table = config.expansion_table(f)
    target = config.lifting_target(t)
    w, contributing, marginals = config.valuation(table)
    if not check("ii", "w_total", w, target, w == target):
        return report
    for i, (pair, marginal) in enumerate(zip(config.pairs, marginals)):
        marginal_target = t[i] * pair.N  # e_i t_i lambda_i
        if not check("ii", f"w_marginal_x{i + 1}", marginal, marginal_target,
                     marginal == marginal_target):
            return report

    # condition (iii): contributing indices divisible by e (only a failure
    # is recorded: two ramified pairs whose e share a factor can break
    # it), then residue degrees and monicity
    for idx in contributing:
        for i, (i_j, pair) in enumerate(zip(idx, config.pairs)):
            if i_j % pair.e:
                check("iii", f"contributing_index_x{i + 1}", f"{i_j} in {idx}",
                      f"a multiple of e_{i + 1} = {pair.e}", False)
                return report
    residue = config.residue(table, contributing)
    for i, ti in enumerate(t):
        di = residue.degree_in(i)
        if not check("iii", f"residue_degree_Z{i + 1}", di, ti, di == ti):
            return report
    lead = residue.coeff(t)
    monic = lead == config.field.one
    if not check("iii", "residue_monic", "1" if monic else lead.to_str(),
                 "1", monic):
        return report
    report.residue = residue
    return report


@dataclass
class LiftingCertificate:
    """Full audit record of the lifting checks and the final verdict.

    It keeps f, the configuration and the names unprinted: to_json
    prints the input, the pairs and the per-variable table.  On a
    lifting it holds the residue's ResidueRecord, shared by every
    certificate of the same residue."""

    f: MultiPoly
    config: PairConfig
    names: tuple  # variable names, or None for x1, x2, ...
    t: tuple
    residue: ResiduePoly
    checks: list
    verdict: str
    reason: str = None
    record: ResidueRecord = None  # the residue's, on a lifting

    @property
    def certified(self):
        return self.verdict == VERDICT_CERTIFIED

    def to_json_dict(self):
        """The certificate document, read back from to_json."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The certificate as json.dumps(indent=2) prints it, written in
        one pass.  The "prime", "pairs" and "variables" members depend
        only on the configuration and the names: json.dumps renders
        them when either is new, and their text is kept on the
        configuration for the names last rendered.  Each check row
        carries its own text, rendered once per row, and the "T" member
        is the residue record's block, printed once per residue."""
        config, names = self.config, self.names
        header = config.rendered_header
        if header is None or header[0] != names:
            header = names, _header_text(config, names)
            config.rendered_header = header
        encode = encode_basestring_ascii
        record = self.record
        checks = ",\n    ".join([c.json for c in self.checks])
        reason = self.reason
        return "".join([
            '{\n  "input": ', encode(self.f.to_str(names)), ",", header[1],
            ',\n  "t": ',
            "null" if self.t is None else _int_list(self.t, "\n  "),
            ',\n  "T": ', "null" if record is None else record.t_json,
            ',\n  "checks": ',
            "[\n    " + checks + "\n  ]" if checks else "[]",
            ',\n  "verdict": ', encode(self.verdict),
            "" if reason is None else ',\n  "reason": ' + encode(reason),
            ',\n  "version": ', encode(__version__), "\n}",
        ])


_CHECK_ROW = """{
      "name": %s,
      "lhs": %s,
      "rhs": %s,
      "pass": %s
    }"""


def _header_text(config, names):
    """The "prime", "pairs" and "variables" members of a certificate,
    each after a newline and two spaces, separated by commas."""
    members = {
        "prime": config.p,
        "pairs": pair_specs_to_json(config.specs, config.p)["pairs"],
        "variables": [
            {
                "variable": names[i] if names else f"x{i + 1}",
                "phi": MultiPoly.from_univariate(
                    config.nvars, i, pair.phi).to_str(names),
                "m": pair.m,
                "lambda": str(pair.lam),
                "e": pair.e,
                "N": pair.N,
                "h": str(pair.h_of(config.p)),
            }
            for i, pair in enumerate(config.pairs)
        ],
    }
    return json.dumps(members, indent=2)[1:-2]


def _int_list(values, newline):
    """json.dumps(list(values), indent=2) for ints, nested at newline."""
    if not values:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(str, values)) + newline + "]"


def certify_irreducible(
    f: MultiPoly, config: PairConfig, *, names=None
) -> LiftingCertificate:
    """Run the lifting checks and, on a lifting, append the residue
    record's rows: T is not a coordinate Z_i, and T is irreducible
    within config.limit.  A Certified verdict means f is irreducible
    over the p-adics and hence over the rationals."""
    report = check_lifting(f, config)
    names = None if names is None else tuple(names)
    if not report.ok:
        return LiftingCertificate(f, config, names, report.t, None,
                                  report.checks, VERDICT_NOT_A_LIFTING,
                                  report.reason)
    record = _residue_record(report.residue, config.limit)
    report.checks.extend(record.checks)
    return LiftingCertificate(f, config, names, report.t, report.residue,
                              report.checks, record.verdict, record.reason,
                              record)


class ResidueRecord(NamedTuple):
    """What a certificate derives from its residue T alone: the
    residue_not_Z and residue_irreducible rows, the verdict and reason
    they give, and the certificate's "T" member."""

    checks: tuple
    verdict: str
    reason: str
    t_json: str


@functools.lru_cache(maxsize=RESIDUE_CACHE_SIZE)
def _residue_record(residue: ResiduePoly, limit: int) -> ResidueRecord:
    # residues recur across large corpora (they only depend on f mod p);
    # a guard trip raises out of the decider uncached
    texts = residue.coefficient_texts()
    text = residue_text(residue.nvars, texts)
    checks, verdict, reason = [], VERDICT_CERTIFIED, None
    for i in range(residue.nvars):
        excluded = residue.is_single_variable(i)
        checks.append(CheckResult(
            f"residue_not_Z{i + 1}", text, f"!= Z{i + 1}", not excluded))
        if excluded:
            verdict = VERDICT_RESIDUE_IS_VARIABLE
            reason = f"residue is the excluded coordinate Z{i + 1}"
            break
    else:
        irreducible = is_irreducible_multivariate(residue, limit)
        checks.append(CheckResult(
            "residue_irreducible", text, "irreducible", irreducible))
        if not irreducible:
            verdict = VERDICT_RESIDUE_REDUCIBLE
            reason = "residue polynomial factors over the residue field"
    return ResidueRecord(tuple(checks), verdict, reason,
                         residue_json(residue, texts, "\n  "))


# ---------------------------------------------------------------------
# generative direction


def generate_lifting(
    T: ResiduePoly, config: PairConfig, seed: int = 0
) -> MultiPoly:
    """Construct a lifting of T as the phi-adic expansion read backwards:
    the digit at index e*J is p^(s_J) times the canonical integer
    representative of T's coefficient c_J, built on ints, and
    `reconstruct` undoes the expansion under config.limit: the division
    work is the one certify counts on the result, so generate refuses
    exactly what certify's guard would.  With seed != 0, sparse noise terms
    of strictly higher valuation are added, each try re-verified: after
    a failed first level the search jumps to _least_noise_level, and it
    raises ResourceLimitExceeded after 60 levels."""
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
    powers = {exps: sum(pair.N * (ti - ji)
                        for pair, ti, ji in zip(config.pairs, t, exps))
              for exps in T.terms}
    _check_lifting_bits(config, powers)
    digits = {
        tuple(pair.e * ji for pair, ji in zip(config.pairs, exps)):
            _lift_element(c, config, p ** powers[exps])
        for exps, c in T.terms.items()
    }
    f = reconstruct(PhiExpansion(n, config.phis, digits), config.limit)

    if seed == 0:
        return f

    noise = _noise(random.Random(seed), config, t)
    level = config.lifting_target(t) + 1
    for attempt in range(60):
        g = f + noise.scale(p ** level)
        report = check_lifting(g, config)
        if report.ok and report.residue == T:
            return g
        level += 1
        if attempt == 0:
            level = max(level, _least_noise_level(noise, config, t))
    raise ResourceLimitExceeded("noise placement attempts", 60, 61)


def _noise(rng, config: PairConfig, t):
    """One to three monomials of degree below e_i t_i m_i in each x_i,
    with coefficients in 1 .. p - 1: the noise before its p-power."""
    bounds = [pair.e * ti * pair.m - 1 for pair, ti in zip(config.pairs, t)]
    monomials = [tuple(rng.randint(0, b) for b in bounds)
                 for _ in range(rng.randint(1, 3))]
    coeffs = [rng.randint(1, max(config.p - 1, 1)) for _ in monomials]
    return MultiPoly(config.nvars, dict(zip(monomials, coeffs)))


def _least_noise_level(noise: MultiPoly, config: PairConfig, t) -> int:
    """The least L at which p^L * noise has w above the lifting target
    and each marginal at least t_i N_i: below it, the sum with the
    lifting has a smaller w or marginal, or another residue."""
    w, _, marginals = config.valuation(config.expansion_table(noise))
    target = config.lifting_target(t)
    return max([math.floor(target - w) + 1] + [
        math.ceil(ti * pair.N - marginal)
        for pair, ti, marginal in zip(config.pairs, t, marginals)])


def _check_lifting_bits(config: PairConfig, powers):
    """Raise ResourceLimitExceeded, before the lifting is built, when
    a term p^s * prod_i phi_i^(e_i j_i) of the lifting has an estimated
    coefficient above MAX_COEFF_BITS bits; powers maps each exponent
    vector j of T to its s.  For phi = x - u/v, phi^k's denominators
    reach v^k, and its numerators sum to (|u| + 1)^k over k + 1
    coefficients, so the largest has at least k*log2(|u| + 1) -
    log2(k + 1) bits: the binomial growth.  An inert phi's coefficients
    sum in absolute value to at least H^k over k*m + 1 of them, with H
    the larger of |phi(1)| and |phi(-1)|.  The estimate is the larger
    of the numerator's bits, s*log2(p) plus each variable's growth, and
    the denominator's."""
    growth = []  # per variable: (numerator bits, denominator bits) per unit of k
    for pair in config.pairs:
        if pair.y_index is None:
            center = pair.spec.center
            growth.append((math.log2(abs(center.numerator) + 1),
                           math.log2(center.denominator)))
        else:
            height = max(abs(sum(pair.phi)),
                         abs(sum(c * (-1) ** j for j, c in enumerate(pair.phi))))
            growth.append((math.log2(height), 0.0))
    log_p = math.log2(config.p)
    for exps, s in powers.items():
        num, den = s * log_p, 0.0
        for (num_rate, den_rate), pair, j in zip(growth, config.pairs, exps):
            k = pair.e * j
            num += max(0.0, k * num_rate - math.log2(k * pair.m + 1))
            den += k * den_rate
        needed = math.ceil(max(num, den))
        if needed > MAX_COEFF_BITS:
            raise ResourceLimitExceeded(
                "estimated lifting coefficient bits", MAX_COEFF_BITS, needed)


def _lift_element(c, config: PairConfig, scale: int) -> MultiPoly:
    """scale times the canonical integer-polynomial representative of a
    residue element, inert generators mapped back to their variables."""
    n = config.nvars
    terms = {}
    for y_exp, k in c.coeffs.items():
        exps = [0] * n
        for i, pair in enumerate(config.pairs):
            if pair.y_index is not None:
                exps[i] = y_exp[pair.y_index]
        terms[tuple(exps)] = k * scale
    return MultiPoly._of(n, terms)


# ---------------------------------------------------------------------
# pair suggestion heuristics


MAX_SUGGESTIONS = 16


def suggest_pairs(f: MultiPoly, p: int):
    """Candidate pair configurations to try with certify, at most
    MAX_SUGGESTIONS: always the all-Gauss one, plus rational centers at
    0 with deltas taken from each variable's lower Newton-polygon slopes
    (other variables at 0)."""
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
        deltas = [0]
        for slope in _newton_slopes(u, i, p):
            if slope > 0 and slope not in deltas:
                deltas.append(slope)
        per_var.append(deltas)
    return [
        [RationalCenter(0, delta) for delta in combo]
        for combo in itertools.islice(itertools.product(*per_var),
                                      MAX_SUGGESTIONS)
    ]


def _newton_slopes(u: MultiPoly, i: int, p: int):
    """Negated slopes of the lower Newton polygon of a univariate
    restriction; these are the candidate valuations of roots."""
    points = sorted((exps[i], vp(c, p)) for exps, c in u.terms.items())
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
        slopes.append(rational(y1 - y2, x2 - x1))
    return slopes


# ---------------------------------------------------------------------
# residue polynomial serialization (wire format)


def residue_json(T: ResiduePoly, texts=None, newline="\n") -> str:
    """T's wire document as json.dumps(indent=2) prints it, nested at
    newline: the prime, one row per term in descending graded-lex order,
    and T's printed form, all from texts, T's coefficient_texts() (read
    from T when None)."""
    encode = encode_basestring_ascii
    i1, i2, i3 = newline + "  ", newline + "    ", newline + "      "
    texts = texts or T.coefficient_texts()
    rows = ",".join([
        i2 + "{" + i3 + '"exp": ' + _int_list(exps, i3) + ","
        + i3 + '"c": ' + encode(text) + i2 + "}"
        for exps, text in texts.items()
    ])
    return "".join([
        "{", i1, '"p": ', str(T.field.p), ",",
        i1, '"coeffs": ', "[" + rows + i1 + "]" if rows else "[]", ",",
        i1, '"text": ', encode(residue_text(T.nvars, texts)),
        newline, "}",
    ])


def residue_to_json(T: ResiduePoly) -> dict:
    return json.loads(residue_json(T))


def residue_from_json(doc: dict, config: PairConfig) -> ResiduePoly:
    from .parse import parse_polynomial

    fld = config.field
    where = "the document"
    try:
        doc = _json_object(doc, where)
        if _json_number(doc.get("p"), "p", integer=True) != fld.p:
            raise ConfigError(
                f"residue document prime {doc.get('p')} does not match {fld.p}"
            )
        ynames = [f"y{k + 1}" for k in range(fld.nyvars)]
        terms = {}
        for i, entry in enumerate(_json_list(doc["coeffs"], "coeffs")):
            where = f"coeffs[{i}]"
            entry = _json_object(entry, where)
            exps = tuple(_json_number(e, "exponent", integer=True)
                         for e in _json_list(entry["exp"], "exponent list"))
            if any(e < 0 for e in exps):
                raise ValueError(f"exponent {entry['exp']} is negative")
            if max(exps, default=0) > MAX_DEGREE:
                raise ResourceLimitExceeded("degree", MAX_DEGREE, max(exps))
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
    except KeyError as exc:
        raise ConfigError(f"malformed residue document: missing field "
                          f"{json.dumps(exc.args[0])} in {where}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed residue document: {exc}") from exc
    return ResiduePoly(fld, config.nvars, terms)
