"""Minimal pairs, their derived invariants, and the induced valuation.

A pair configuration fixes, per variable, either a rational center with
a distance delta >= 0, or an "inert" working polynomial (monic over the
integers, irreducible mod p) with delta > 0.  From each pair we derive:

  * the working polynomial phi_i and its degree m_i,
  * lambda_i, the value of phi_i under the pair valuation,
  * e_i, the denominator of lambda_i, and N_i = e_i * lambda_i,
    so the normalizer h_i is the constant p^{N_i}.

The valuation of a polynomial f is computed from its phi-adic expansion,
taken after a Taylor shift to each rational center (so phi = x there):

    w(f) = min_I ( v(a_I at the centers) + sum_j i_j * lambda_j )

where the coefficient value is the Gauss content of the (recentred)
digit; this content rule is exact because inert extensions are
unramified with pairwise coprime degrees, a constraint the residue
field construction enforces.  One walk over the expansion table gives
w, the contributing (argmin) indices and the per-variable marginals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, LiftcertError
from .exactnum import INFINITY, Val
from .finitefield import DEFAULT_CANDIDATE_LIMIT, ResidueField, ResiduePoly
from .multipoly import MultiPoly, content_valuation, phi_expand


class NotNormalized(LiftcertError):
    """w(f) does not match the target sum of e_i * t_i * lambda_i."""

    def __init__(self, actual: Val, expected: Fraction):
        self.actual = actual
        self.expected = expected
        super().__init__(
            f"w(f) = {actual} but the declared t requires {expected}"
        )


class FractionalPPower(LiftcertError):
    """Residue p-power bookkeeping did not land in the integers.

    Impossible in supported configurations; kept as a hard assertion.
    """


# ---------------------------------------------------------------------
# pair specifications


@dataclass(frozen=True)
class RationalCenter:
    center: Fraction
    delta: Fraction  # >= 0; (0, 0) is the Gauss pair

    def validate(self):
        if self.delta < 0:
            raise ConfigError("rational-center delta must be >= 0")


@dataclass(frozen=True)
class Inert:
    phi: tuple  # integer coefficients, low-to-high, monic
    delta: Fraction  # > 0: minimality holds only for positive delta

    def validate(self):
        """Shape checks; irreducibility mod p is checked by ResidueField."""
        phi = self.phi
        if len(phi) < 3 or phi[-1] != 1:
            raise ConfigError(
                "inert phi must be monic with integer coefficients and degree >= 2"
            )
        if any(not isinstance(c, int) for c in phi):
            raise ConfigError("inert phi must have integer coefficients")
        if self.delta <= 0:
            raise ConfigError("inert delta must be > 0")


def compute_lambda(pair, p: int) -> Fraction:
    """lambda = w(phi) under the pair valuation, after validating the
    pair and p as PairConfig does.

    Rational center: phi = x - center has the single Taylor digit 1
    above the root, so lambda = delta.  Inert: lambda is the minimum of
    v(phi^(k)(alpha)/k!) + k*delta over k >= 1, and it is delta too (see
    PairConfig).
    """
    return PairConfig([pair], p).pairs[0].lam


def compute_e_h(lam: Fraction, p: int):
    """Smallest e with e*lambda integral, and N = e*lambda (h = p^N)."""
    lam = Fraction(lam)
    e = lam.denominator
    n = lam.numerator
    return e, n


@dataclass(frozen=True)
class PairData:
    spec: object  # RationalCenter or Inert
    phi: tuple  # working polynomial coefficients, low-to-high (Fractions)
    m: int
    lam: Fraction
    e: int
    N: int
    y_index: object  # position among inert generators, or None

    def h_of(self, p: int) -> Fraction:
        return Fraction(p) ** self.N


class PairConfig:
    """A validated pair configuration: derived pair data plus the
    composite residue field determined by the inert generators."""

    def __init__(self, specs, p, limit=DEFAULT_CANDIDATE_LIMIT):
        self.p = p
        self.specs = list(specs)
        pairs = []
        inert_gens = []
        for spec in self.specs:
            spec.validate()
            # lambda = delta for inert pairs too: the k = 1 Taylor digit
            # sum_j j*phi_j x^(j-1) has content 0, else phi mod p would be
            # a p-th power, and every k >= 2 term is at least k*delta
            lam = Fraction(spec.delta)
            e, n = compute_e_h(lam, p)
            if isinstance(spec, RationalCenter):
                phi = (Fraction(-spec.center), Fraction(1))
                y_index = None
            else:
                phi = tuple(Fraction(c) for c in spec.phi)
                y_index = len(inert_gens)
                inert_gens.append(spec.phi)
            pairs.append(
                PairData(
                    spec=spec,
                    phi=phi,
                    m=len(phi) - 1,
                    lam=lam,
                    e=e,
                    N=n,
                    y_index=y_index,
                )
            )
        self.pairs = pairs
        # checks that p is prime and that each inert phi is irreducible mod p
        self.field = ResidueField(p, inert_gens, limit)

    @property
    def nvars(self) -> int:
        return len(self.pairs)

    def _check_arity(self, f: MultiPoly):
        if f.nvars != self.nvars:
            raise ConfigError(
                f"polynomial has {f.nvars} variables, configuration has "
                f"{self.nvars} pairs"
            )

    # -- phi-adic machinery -------------------------------------------

    def expansion_table(self, f: MultiPoly):
        """Map from expansion index I to (digit a_I, content value of a_I).

        Rational-center variables are recentred first and expanded with
        phi = x, so the digit's degree-0 part in those variables is the
        evaluation at the center; inert variables keep their phi.
        """
        self._check_arity(f)
        g = f
        phis = []
        for j, pair in enumerate(self.pairs):
            if isinstance(pair.spec, RationalCenter):
                g = g.shift(j, pair.spec.center)
                phis.append([Fraction(0), Fraction(1)])
            else:
                phis.append(list(pair.phi))
        expansion = phi_expand(g, phis)
        return {
            idx: (a, content_valuation(a, self.p))
            for idx, a in expansion.terms.items()
        }

    def valuation(self, table):
        """One walk over an expansion table: w(f), the contributing
        (argmin) indices in ascending order, and the marginal of each
        variable, where only that variable's lambda is added to the
        coefficient value (the others are evaluated at their centers)."""
        lams = [pair.lam for pair in self.pairs]
        best = None
        contributing = []
        marginals = [None] * len(lams)
        for idx in sorted(table):
            cv = table[idx][1].finite_value  # digits are nonzero
            value = cv
            for k, (i, lam) in enumerate(zip(idx, lams)):
                step = i * lam
                value += step
                if marginals[k] is None or cv + step < marginals[k]:
                    marginals[k] = cv + step
            if best is None or value < best:
                best = value
                contributing = [idx]
            elif value == best:
                contributing.append(idx)
        w = INFINITY if best is None else Val.finite(best)
        return w, contributing, [
            INFINITY if m is None else Val.finite(m) for m in marginals
        ]

    # -- residue extraction ---------------------------------------------

    def lifting_target(self, t) -> Fraction:
        return sum(
            (pair.e * ti * pair.lam for pair, ti in zip(self.pairs, t)),
            Fraction(0),
        )

    def residue(self, table, t, w, contributing) -> ResiduePoly:
        """The w-residue of f / prod_i p^(N_i t_i), as a polynomial in
        the Z_i, from f's expansion table and its w and contributing
        indices; w must equal the target sum of e_i t_i lambda_i, and
        each contributing i_j must be a multiple of e_j (check_lifting
        checks both first)."""
        expected = self.lifting_target(t)
        if w != Val.finite(expected):
            raise NotNormalized(w, expected)
        terms = {}
        for idx in contributing:
            a, cv = table[idx]
            z_exp = tuple(i_j // pair.e for i_j, pair in zip(idx, self.pairs))
            c = cv.finite_value
            if c.denominator != 1:
                raise FractionalPPower(
                    f"content {c} of contributing digit {idx} is fractional"
                )
            depleted = a.scale(Fraction(1, 1) / Fraction(self.p) ** int(c))
            terms[z_exp] = self._residue_element(depleted)
        return ResiduePoly(self.field, self.nvars, terms)

    def _residue_element(self, a: MultiPoly):
        """Image of a content-0 digit in the residue field: reduce the
        coefficients mod p and send each inert x_j to its generator y_j."""
        p = self.p
        coeffs = {}
        for exps, c in a.terms.items():
            y_exp = [0] * self.field.nyvars
            for e, pair in zip(exps, self.pairs):
                if pair.y_index is None:
                    # recentred digits are constant in rational-center vars
                    assert e == 0
                else:
                    y_exp[pair.y_index] = e
            num = c.numerator % p
            den = c.denominator % p
            if den == 0:
                raise FractionalPPower(f"coefficient {c} not p-integral")
            r = (num * pow(den, -1, p)) % p
            if r:
                y_exp = tuple(y_exp)
                coeffs[y_exp] = (coeffs.get(y_exp, 0) + r) % p
        return self.field.element(coeffs)


# ---------------------------------------------------------------------
# pair-spec JSON


def pair_specs_to_json(specs, p) -> dict:
    pairs = []
    for spec in specs:
        if isinstance(spec, RationalCenter):
            pairs.append(
                {
                    "kind": "rational_center",
                    "center": str(spec.center),
                    "delta": str(spec.delta),
                }
            )
        else:
            pairs.append(
                {
                    "kind": "inert",
                    "phi": [int(c) for c in spec.phi],
                    "delta": str(spec.delta),
                }
            )
    return {"prime": p, "pairs": pairs}


def pair_specs_from_json(doc: dict):
    """Returns (specs, prime). phi is listed low-to-high degree."""
    try:
        p = doc["prime"]
        specs = []
        for entry in doc["pairs"]:
            kind = entry["kind"]
            if kind == "rational_center":
                specs.append(
                    RationalCenter(
                        center=Fraction(entry["center"]),
                        delta=Fraction(entry["delta"]),
                    )
                )
            elif kind == "inert":
                specs.append(
                    Inert(
                        phi=tuple(int(c) for c in entry["phi"]),
                        delta=Fraction(entry["delta"]),
                    )
                )
            else:
                raise ConfigError(f"unknown pair kind {kind!r}")
        return specs, p
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed pair-spec document: {exc}") from exc


def load_pair_specs(path):
    with open(path, "r", encoding="utf-8") as fh:
        return pair_specs_from_json(json.load(fh))
