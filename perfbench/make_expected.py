"""Write the expected-answer files in perfbench/data.

    PYTHONPATH=src python3 perfbench/make_expected.py

Answers come from construction or from the Kronecker oracle
(``brute_factor``), which shares no valuation code:

- gauss.json: which of the 81 residues x^2y^2 + a*xy + b*x + c*y + d
  mod 3 factor over F_3, found by multiplying out every pair of factor
  candidates (no divisor search), and brute_factor's answer for all 6,561
  family members.
- residues.json, roundtrip.json: random monic residues.  Reducible ones
  are products by construction.  An irreducible one is drawn when the
  library's search finds no factor, and ``splits`` confirms that no
  factor exists by trial division over the residue field, with its own
  arithmetic (no liftcert code).  Every pool entry is lifted and
  certified here once, and the verdict must match.
- oracle.json: a fixed sample of family members, and univariate octics
  with brute_factor's answer.

The output is deterministic; the run takes a few minutes.
"""

import itertools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from liftcert import (  # noqa: E402
    MultiPoly,
    ResiduePoly,
    ResourceLimitExceeded,
    brute_factor,
    certify_irreducible,
    generate_lifting,
    is_irreducible_multivariate,
)
from liftcert.lifting import residue_to_json  # noqa: E402

SEED = 20261017
ORACLE_FAMILY = 200
ORACLE_UNIVARIATE = 100


def write(name, doc):
    path = workloads.DATA / name
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", flush=True)


# ---------------------------------------------------------------------
# gauss-family


def product_mod(a, b, p):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def box_polys(box, p):
    """Every polynomial mod p with exponents in the box and corner
    coefficient 1."""
    exps = [e for e in itertools.product(*(range(b + 1) for b in box))
            if e != box]
    for coeffs in itertools.product(range(p), repeat=len(exps)):
        poly = {e: c for e, c in zip(exps, coeffs) if c}
        poly[box] = 1
        yield poly


def reducible_family_residues(p=3):
    """Residues Z1^2Z2^2 + a*Z1Z2 + b*Z1 + c*Z2 + d that are a product
    A*B of non-constant factors.  Since the Z1^2 coefficient of such a
    residue is Z2^2 and its Z2^2 coefficient is Z1^2, each factor has a
    corner monomial Z1^i Z2^j with i, j its degrees, normalised to 1."""
    shape = {(2, 2), (1, 1), (1, 0), (0, 1), (0, 0)}
    found = set()
    for box in itertools.product(range(3), repeat=2):
        if box in ((0, 0), (2, 2)):
            continue
        rest = (2 - box[0], 2 - box[1])
        for a in box_polys(box, p):
            for b in box_polys(rest, p):
                prod = product_mod(a, b, p)
                if set(prod) <= shape:
                    found.add(tuple(prod.get(e, 0)
                                    for e in [(1, 1), (1, 0), (0, 1), (0, 0)]))
    return sorted(found)


def gauss_doc():
    reducible = set(reducible_family_residues())
    config = workloads.make_config(workloads.gauss_pairs(3, 2))
    bits = []
    for abcd in itertools.product(range(9), repeat=4):
        f = workloads.family_poly(*abcd)
        irreducible = brute_factor(f).irreducible
        bits.append("1" if irreducible else "0")
        cert = certify_irreducible(f, config)
        expected = tuple(k % 3 for k in abcd) not in reducible
        if cert.certified != expected or (cert.certified and not irreducible):
            raise SystemExit(f"disagreement on {abcd}: {cert.verdict}")
    return {
        "prime": 3,
        "reducible_residues": [list(r) for r in sorted(reducible)],
        "oracle_irreducible": "".join(bits),
    }


# ---------------------------------------------------------------------
# residue pools


def liftable(T, config, t):
    """Monic of degrees t, not a coordinate, and liftable: coefficients at
    an inert variable's full degree must not involve its generator."""
    n = config.nvars
    if any(T.degree_in(i) != t[i] for i in range(n)):
        return False
    if T.coeff(t) != config.field.one:
        return False
    if any(T.is_single_variable(i) for i in range(n)):
        return False
    for exps, c in T.terms.items():
        for i, pair in enumerate(config.pairs):
            if pair.y_index is None or exps[i] < t[i] or exps == tuple(t):
                continue
            if any(e[pair.y_index] for e in c.coeffs):
                return False
    return True


class Field:
    """F_p, or F_p[y]/(g) for one monic generator g (low-to-high
    coefficients); elements are tuples of coefficients of 1, y, y^2..."""

    def __init__(self, p, generator=None):
        self.p = p
        self.g = [c % p for c in generator] if generator else [0, 1]
        self.d = len(self.g) - 1
        self.zero = (0,) * self.d
        self.one = (1,) + (0,) * (self.d - 1)

    def elements(self):
        return itertools.product(range(self.p), repeat=self.d)

    def sub_mul(self, a, b, c):
        """a - b*c"""
        p, d, g = self.p, self.d, self.g
        prod = [0] * (2 * d - 1)
        for i, bi in enumerate(b):
            for j, cj in enumerate(c):
                prod[i + j] += bi * cj
        for k in range(2 * d - 2, d - 1, -1):  # y^d = -(g_0 + ... )
            for j in range(d):
                prod[k - d + j] -= prod[k] * g[j]
        return tuple((x - y) % p for x, y in zip(a, prod))

    def convert(self, element):
        """A liftcert residue-field element as a tuple."""
        return tuple(element.coeffs.get((k,) if element.field.nyvars else (), 0)
                     for k in range(self.d))


def lex_divides(t, a, field):
    """Whether a divides t, by division in lex order; the lex-leading
    coefficient of a is 1."""
    lead = max(a)
    rest = [(e, c) for e, c in a.items() if e != lead]
    r = dict(t)
    while r:
        top = max(r)
        q = tuple(x - y for x, y in zip(top, lead))
        if min(q) < 0:
            return False
        c = r.pop(top)
        for e, ce in rest:
            m = tuple(x + y for x, y in zip(q, e))
            v = field.sub_mul(r.get(m, field.zero), c, ce)
            if any(v):
                r[m] = v
            else:
                r.pop(m, None)
    return True


def splits(T, field):
    """Whether T, monic at its corner t (its degree in each variable),
    is A*B with A and B not constant.  The corner coefficient of T is
    that of A times that of B, so A can be scaled to corner coefficient
    1, which is then its lex-leading coefficient; A's exponents lie in
    the box below its degrees a, and B's in the box below t - a.  Of
    each such pair (A, B) the factor with the smaller box is tried as a
    divisor of T."""
    t = max(T.terms)
    poly = {e: field.convert(c) for e, c in T.terms.items()}
    assert poly[t] == field.one and all(
        x <= y for e in poly for x, y in zip(e, t))
    for a in itertools.product(*(range(ti + 1) for ti in t)):
        b = tuple(ti - ai for ti, ai in zip(t, a))
        if not any(a) or not any(b) or (box_size(a), a) > (box_size(b), b):
            continue
        exps = [e for e in itertools.product(*(range(ai + 1) for ai in a))
                if e != a]
        for coeffs in itertools.product(list(field.elements()), repeat=len(exps)):
            A = {e: c for e, c in zip(exps, coeffs) if any(c)}
            A[a] = field.one
            if lex_divides(poly, A, field):
                return True
    return False


def box_size(a):
    size = 1
    for ai in a:
        size *= ai + 1
    return size


def residue_field(pair_doc):
    """The residue field of a pair document, built independently."""
    generators = [pair["phi"] for pair in pair_doc["pairs"]
                  if pair["kind"] == "inert"]
    assert len(generators) <= 1
    return Field(pair_doc["prime"], generators[0] if generators else None)


def random_box(config, box, rng, elems):
    terms = {tuple(box): config.field.one}
    for e in itertools.product(*(range(b + 1) for b in box)):
        if e != tuple(box):
            terms[e] = rng.choice(elems)
    return ResiduePoly(config.field, config.nvars, terms)


def sample_residues(config, field, plan, rng, count, irreducible):
    """Distinct liftable residues; irreducible ones where the library's
    search and ``splits`` agree that there is no factor, reducible ones
    as products A*B."""
    elems = list(config.field.elements())
    seen = set()
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100000:
            raise SystemExit(f"found only {len(out)} of {count} residues for {plan}")
        t = tuple(rng.choice(plan))
        if irreducible:
            T = random_box(config, t, rng, elems)
        else:
            a = tuple(rng.randint(0, ti) for ti in t)
            if sum(a) == 0 or a == t:
                continue
            b = tuple(ti - ai for ti, ai in zip(t, a))
            T = random_box(config, a, rng, elems) * random_box(config, b, rng, elems)
        if not liftable(T, config, t) or T.to_str() in seen:
            continue
        if is_irreducible_multivariate(T) != irreducible:
            continue
        if splits(T, field) == irreducible:
            raise SystemExit(f"{T.to_str()}: the library's search and the "
                             f"trial division disagree")
        seen.add(T.to_str())
        out.append(T)
    return out


def lift_and_certify(T, config, verdict, rng, cross_check=True):
    """Lift T once and certify it; where the lifting is in the oracle's
    range, a Certified verdict must meet an oracle-irreducible input."""
    f = generate_lifting(T, config, rng.randint(1, 10 ** 6))
    cert = certify_irreducible(f, config)
    if cert.verdict != verdict or cert.residue != T:
        raise SystemExit(f"{T.to_str()}: {cert.verdict}, expected {verdict}")
    if cross_check and f.nvars <= 2 and f.degree() <= 8 and cert.certified:
        try:
            factors = brute_factor(f)
        except ResourceLimitExceeded:  # too big for the oracle: skip it
            return
        if not factors.irreducible:
            raise SystemExit(f"{f.to_str()} is Certified but factors")


def residue_pools(rng):
    pools = {}
    for name, (pair_doc, t, n_irr, n_red) in workloads.RESIDUE_CLASSES.items():
        config = workloads.make_config(pair_doc)
        pool = {}
        for key, count, irreducible, verdict in [
            ("irreducible", n_irr, True, workloads.CERTIFIED),
            ("reducible", n_red, False, workloads.REDUCIBLE),
        ]:
            residues = sample_residues(config, residue_field(pair_doc), [t],
                                       rng, count, irreducible)
            for T in residues:
                lift_and_certify(T, config, verdict, rng)
            pool[key] = [residue_to_json(T) for T in residues]
        pools[name] = pool
        print(f"  {name}: {len(pool['irreducible'])} irreducible, "
              f"{len(pool['reducible'])} reducible", flush=True)
    return pools


def roundtrip_pools(rng):
    pools = []
    for pair_doc, plan in workloads.ROUNDTRIP_CONFIGS:
        config = workloads.make_config(pair_doc)
        residues = sample_residues(config, residue_field(pair_doc), plan, rng,
                                   workloads.ROUNDTRIP_RESIDUES, True)
        for T in residues:
            # liftings around non-zero centres have coefficients too large
            # for the oracle to finish at desk scale
            lift_and_certify(T, config, workloads.CERTIFIED, rng, cross_check=False)
        pools.append([residue_to_json(T) for T in residues])
    return pools


# ---------------------------------------------------------------------
# oracle


def oracle_doc(rng):
    family = rng.sample(list(itertools.product(range(9), repeat=4)),
                        ORACLE_FAMILY)
    univariate = []
    for _ in range(ORACLE_UNIVARIATE):
        coeffs = [rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])]
        coeffs += [rng.randint(-5, 5) for _ in range(7)] + [1]
        f = MultiPoly.from_univariate(1, 0, coeffs)
        univariate.append({
            "coeffs": coeffs,
            "irreducible": brute_factor(f).irreducible,
        })
    return {"family": [list(m) for m in family], "univariate": univariate}


def main():
    rng = random.Random(SEED)
    write("residues.json", residue_pools(rng))
    write("roundtrip.json", roundtrip_pools(rng))
    write("oracle.json", oracle_doc(rng))
    write("gauss.json", gauss_doc())


if __name__ == "__main__":
    main()
