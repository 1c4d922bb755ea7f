"""Minimal pairs, their derived invariants, and the induced valuation.

A pair configuration fixes, per variable, either a rational center with
a distance delta >= 0, or an "inert" working polynomial (monic over the
integers, irreducible mod p) with delta > 0.  From each pair we derive:

  * the working polynomial phi_i and its degree m_i,
  * lambda_i, the value of phi_i under the pair valuation,
  * e_i, the denominator of lambda_i, and N_i = e_i * lambda_i,
    so the normalizer h_i is the constant p^{N_i}.

The valuation of a polynomial f is computed from its phi-adic expansion
in the pairs' own phis (multipoly.phi_expand): a rational center's
phi = x - center is a Taylor shift, after which the digit index is the
exponent; an inert phi is divided out, with that division's work
guarded by the configuration's limit:

    w(f) = min_I ( v(a_I at the centers) + sum_j i_j * lambda_j )

where the coefficient value is the Gauss content of the digit; this
content rule is exact because inert extensions are unramified with
pairwise coprime degrees, a constraint the residue field construction
enforces.  One walk over the expansion table gives w, the contributing
(argmin) indices and the per-variable marginals.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DEFAULT_CANDIDATE_LIMIT,
    ConfigError,
    LiftcertError,
    ResourceLimitExceeded,
)
from .exactnum import rational
from .finitefield import ResidueElement, ResidueField, ResiduePoly
from .multipoly import MultiPoly, content_valuation, phi_expand
from .parse import MAX_COEFF_BITS, check_coeff, parse_number


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


@dataclass(frozen=True)
class PairData:
    spec: object  # RationalCenter or Inert
    phi: tuple  # working polynomial coefficients, low-to-high
    m: int
    lam: Fraction
    e: int
    N: int
    y_index: object  # position among inert generators, or None

    def h_of(self, p: int) -> int:
        """h = p^N, refused (ResourceLimitExceeded) above MAX_COEFF_BITS
        bits so that it prints; p^N has more than N*(bitlen(p) - 1)
        bits, which refuses a huge N before the power is formed."""
        low = self.N * (p.bit_length() - 1)
        if low >= MAX_COEFF_BITS:
            raise ResourceLimitExceeded("coefficient bits", MAX_COEFF_BITS,
                                        low + 1)
        return check_coeff(p ** self.N)


class PairConfig:
    """A validated pair configuration: derived pair data plus the
    composite residue field determined by the inert generators."""

    def __init__(self, specs, p, limit=DEFAULT_CANDIDATE_LIMIT):
        self.p = p
        self.limit = limit  # the bound of every work guard
        self.specs = list(specs)
        pairs = []
        inert_gens = []
        for spec in self.specs:
            spec.validate()
            # lambda = w(phi) = delta.  A rational center's phi = x -
            # center has the single Taylor digit 1 above the root.  For
            # an inert phi the k = 1 Taylor digit sum_j j*phi_j x^(j-1)
            # has content 0, else phi mod p would be a p-th power, and
            # every k >= 2 term is at least k*delta.  e is the smallest
            # integer with e*lambda integral, and N = e*lambda (h = p^N).
            lam = rational(spec.delta)
            if isinstance(spec, RationalCenter):
                phi = (rational(-spec.center), 1)
                y_index = None
            else:
                phi = tuple(spec.phi)
                y_index = len(inert_gens)
                inert_gens.append(spec.phi)
            pairs.append(
                PairData(
                    spec=spec,
                    phi=phi,
                    m=len(phi) - 1,
                    lam=lam,
                    e=lam.denominator,
                    N=lam.numerator,
                    y_index=y_index,
                )
            )
        self.pairs = pairs
        self.phis = [pair.phi for pair in pairs]
        # the inert variables' positions, in generator order
        self.inert = [i for i, pair in enumerate(pairs)
                      if pair.y_index is not None]
        # the valuation walk's ints: E = lcm(e_i) and lambda_i * E
        self.scale = math.lcm(*(pair.e for pair in pairs))
        self.steps = [pair.N * (self.scale // pair.e) for pair in pairs]
        # checks that p is prime and that each inert phi is irreducible mod p
        self.field = ResidueField(p, inert_gens, limit)
        # (names, text) of the certificate header last rendered for this
        # configuration; LiftingCertificate.to_json fills it
        self.rendered_header = None

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
        """Map from expansion index I to (digit a_I, the int content
        valuation of a_I), from phi_expand in the pairs' own phis: a
        rational-center digit is the evaluation at the center, and the
        division by an inert phi is guarded by self.limit
        (ResourceLimitExceeded)."""
        self._check_arity(f)
        return {idx: (a, content_valuation(a, self.p)) for idx, a in
                phi_expand(f, self.phis, self.limit).terms.items()}

    def valuation(self, table):
        """One walk over an expansion table: w(f), the contributing
        (argmin) indices in ascending order, and the marginal of each
        variable, where only that variable's lambda is added to the
        coefficient value (the others are evaluated at their centers).
        The walk adds ints scaled by E = lcm(e_i), since lambda_i * E =
        N_i * E / e_i; the values returned are exact rationals, ints
        when integral, None for the zero polynomial's empty table."""
        scale, steps = self.scale, self.steps
        best = None
        contributing = []
        marginals = [None] * len(steps)
        for idx in sorted(table):
            cv = table[idx][1] * scale  # an int: digits are nonzero
            value = cv
            for k, (i, step) in enumerate(zip(idx, steps)):
                value += i * step
                if marginals[k] is None or cv + i * step < marginals[k]:
                    marginals[k] = cv + i * step
            if best is None or value < best:
                best = value
                contributing = [idx]
            elif value == best:
                contributing.append(idx)
        if best is None:
            return None, contributing, marginals
        return (rational(best, scale), contributing,
                [rational(m, scale) for m in marginals])

    # -- residue extraction ---------------------------------------------

    def lifting_target(self, t) -> int:
        """The sum of e_i t_i lambda_i, that is of t_i N_i."""
        return sum(pair.N * ti for pair, ti in zip(self.pairs, t))

    def residue(self, table, contributing) -> ResiduePoly:
        """The w-residue of f / prod_i p^(N_i t_i), as a polynomial in
        the Z_i, from f's expansion table and its contributing indices;
        w must equal the target sum of e_i t_i lambda_i, and each
        contributing i_j must be a multiple of e_j (check_lifting checks
        both first)."""
        terms = {}
        for idx in contributing:
            a, c = table[idx]
            z_exp = tuple(i_j // pair.e for i_j, pair in zip(idx, self.pairs))
            terms[z_exp] = self._residue_element(a, c)
        return ResiduePoly(self.field, self.nvars, terms)

    def _residue_element(self, a: MultiPoly, c: int):
        """Image of the content-0 digit p^(-c) * a in the residue field:
        reduce the coefficients mod p and send each inert x_j to its
        generator y_j.  A digit's degree in an inert x_j is below deg
        phi_j, the generator's degree, so the image is already reduced.
        p^(-c) is folded into each coefficient's integer numerator and
        denominator."""
        p, inert = self.p, self.inert
        num_scale, den_scale = (1, p ** c) if c >= 0 else (p ** -c, 1)
        coeffs = {}
        for exps, q in a.terms.items():
            y_exp = tuple([exps[i] for i in inert])
            # recentred digits are constant in rational-center vars:
            # exponents are >= 0, so the sums agree only when they are 0
            assert sum(exps) == sum(y_exp)
            if type(q) is int:
                num, den = q * num_scale, den_scale
            else:
                num, den = q.numerator * num_scale, q.denominator * den_scale
            r, rem = divmod(num, den)
            if rem:  # not an integer: reduce, then invert mod p
                g = math.gcd(num, den)
                if den // g % p == 0:
                    raise FractionalPPower(
                        f"coefficient {Fraction(num, den)} not p-integral")
                r = num // g * pow(den // g, -1, p)
            r %= p
            if r:
                coeffs[y_exp] = r
        return ResidueElement(self.field, coeffs)


# ---------------------------------------------------------------------
# pair-spec JSON


def pair_specs_to_json(specs, p) -> dict:
    pairs = []
    for spec in specs:
        if isinstance(spec, RationalCenter):
            pair = {"kind": "rational_center", "center": str(spec.center)}
        else:
            pair = {"kind": "inert", "phi": [int(c) for c in spec.phi]}
        pair["delta"] = str(spec.delta)
        pairs.append(pair)
    return {"prime": p, "pairs": pairs}


# an optional sign, then "a" or "a/b" as in parse.py; the group is the
# denominator
_RATIONAL = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")


def _json_number(value, name, integer=False):
    """A number from a pair or residue file: a JSON integer, or a string
    "a" or (unless integer) "a/b" with an optional sign.  A float or a
    bool would be truncated, so it raises ValueError naming the field,
    as does any other string.  A value of more than MAX_COEFF_BITS bits
    raises ResourceLimitExceeded; a string is read by parse.parse_number,
    which counts its digits before any int is built.  Returns an int when
    integer, else an exact rational as `rational` stores it."""
    match = _RATIONAL.fullmatch(value) if type(value) is str else None
    if match and not (integer and match[1]):
        value = parse_number(value)
    elif type(value) is int:
        check_coeff(value)
    else:
        form = '"a"' if integer else '"a" or "a/b"'
        raise ValueError(f"{name} must be a JSON integer or a string "
                         f"{form}, got {json.dumps(value)}")
    return value


def _json_list(value, name):
    """A list from a pair or residue file: a JSON string would be read
    character by character, so anything else raises ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list, got {json.dumps(value)}")
    return value


def _json_object(value, name):
    """An object from a pair or residue file; anything else raises
    ValueError."""
    if not isinstance(value, dict):
        raise ValueError(
            f"{name} must be a JSON object, got {json.dumps(value)}")
    return value


def pair_specs_from_json(doc: dict):
    """Returns (specs, prime). phi is listed low-to-high degree."""
    where = "the document"
    try:
        doc = _json_object(doc, where)
        p = _json_number(doc["prime"], "prime", integer=True)
        specs = []
        for i, entry in enumerate(_json_list(doc["pairs"], "pairs")):
            where = f"pairs[{i}]"
            entry = _json_object(entry, where)
            kind = entry["kind"]
            if kind == "rational_center":
                specs.append(RationalCenter(
                    center=_json_number(entry["center"], "center"),
                    delta=_json_number(entry["delta"], "delta"),
                ))
            elif kind == "inert":
                specs.append(Inert(
                    phi=tuple(_json_number(c, "phi entry", integer=True)
                              for c in _json_list(entry["phi"], "phi")),
                    delta=_json_number(entry["delta"], "delta"),
                ))
            else:
                raise ConfigError(f"unknown pair kind {kind!r}")
        return specs, p
    except KeyError as exc:
        raise ConfigError(f"malformed pair-spec document: missing field "
                          f"{json.dumps(exc.args[0])} in {where}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed pair-spec document: {exc}") from exc


def read_json(path, what):
    """The JSON document in the file at path.  Bytes that are not UTF-8,
    nesting past the recursion limit and integer literals past Python's
    4,300-digit limit raise ConfigError, as malformed JSON does."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"malformed {what}: {exc}") from None


def load_pair_specs(path):
    return pair_specs_from_json(read_json(path, "pair-spec document"))
