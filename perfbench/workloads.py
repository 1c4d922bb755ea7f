"""The four benchmark workloads: their inputs, one op each, and the
answer checks.

Each op sends one polynomial through the public API the way a user does
(text or residue JSON in, verdict and JSON out).  Library entry points
are called through their modules (``lifting.certify_irreducible``, not a
name imported from it), so the traced run can patch them in one place.

Inputs come from the seed and from the expected-answer files in
``data/``, which ``make_expected.py`` writes.  An op's ``check`` returns
None or a description of the wrong answer; a guard trip
(``ResourceLimitExceeded``) is never a wrong answer, it only lowers the
decided fraction.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from liftcert import ResiduePoly, lifting, oracle, parse, valuation
from liftcert.multipoly import MultiPoly, grlex_key

DATA = Path(__file__).resolve().parent / "data"
VARIABLES = ["x", "y", "z"]
GUARD = "guard"
CERTIFIED = "Certified"
REDUCIBLE = "ResidueReducible"
NOT_A_LIFTING = "NotALifting"


def gauss_pairs(p, n):
    """Pair document of the all-Gauss configuration (centre 0, delta 0)."""
    return {
        "prime": p,
        "pairs": [{"kind": "rational_center", "center": "0", "delta": "0"}] * n,
    }


def rational(center, delta):
    return {"kind": "rational_center", "center": center, "delta": delta}


def inert(phi, delta):
    return {"kind": "inert", "phi": phi, "delta": delta}


def make_config(pair_doc):
    specs, p = valuation.pair_specs_from_json(pair_doc)
    return valuation.PairConfig(specs, p)


# residue-search classes: name -> (pair document, residue degrees t,
# irreducible residues, reducible residues).  The residues in
# data/residues.json are fixed, because the search cost depends on T
# alone and a per-seed draw spread ops_per_s by 17 % between seeds; the
# seed varies the liftings (their noise terms) and the order.
RESIDUE_CLASSES = {
    "gauss3-22": (gauss_pairs(3, 2), (2, 2), 4, 1),
    "gauss3-32": (gauss_pairs(3, 2), (3, 2), 4, 1),
    "gauss5-22": (gauss_pairs(5, 2), (2, 2), 3, 1),
    "gauss5-32": (gauss_pairs(5, 2), (3, 2), 3, 1),
    "gauss2-43": (gauss_pairs(2, 2), (4, 3), 3, 1),
    "gauss2-221": (gauss_pairs(2, 3), (2, 2, 1), 3, 1),
    "inert4-ramified": (
        {"prime": 2, "pairs": [inert([1, 1, 1], "1/2"), rational("0", "1/2")]},
        (2, 2), 3, 1,
    ),
    "gauss3-33": (gauss_pairs(3, 2), (3, 3), 1, 0),
    "inert9-ramified": (
        {"prime": 3, "pairs": [inert([1, 0, 1], "1/2"), rational("0", "1/2")]},
        (2, 2), 1, 0,
    ),
}

# the ceiling probes named in ROADMAP: (label, pair document, text,
# verdicts accepted besides a guard trip).  The first and third are
# reducible by construction: x^6*y^6+1 = (x^2*y^2+1)^3 mod 3, and the
# third text is (x*y+x+1)*(x*y+y+2).
PROBES = [
    ("probe x^6*y^6+1 p=3", gauss_pairs(3, 2), "x^6*y^6 + 1", {REDUCIBLE}),
    ("probe x^2*y^2*z^2+x*y*z+1 p=2", gauss_pairs(2, 3),
     "x^2*y^2*z^2 + x*y*z + 1", {CERTIFIED}),
    ("probe Gauss pairs p=1000000007", gauss_pairs(10 ** 9 + 7, 2),
     "x^2*y^2 + x^2*y + x*y^2 + 4*x*y + 2*x + y + 2", {REDUCIBLE}),
]

# roundtrip-mixed: non-zero rational centres, ramified deltas and inert
# phi, every lambda > 0, so f + 1 always fails the valuation condition
ROUNDTRIP_CONFIGS = [
    ({"prime": 3, "pairs": [rational("1", "1/2"), rational("-1", "1")]},
     [(1, 1), (2, 1)]),
    ({"prime": 3, "pairs": [inert([1, 0, 1], "1/2"), rational("1/2", "1/2")]},
     [(1, 1)]),
    ({"prime": 2, "pairs": [inert([1, 1, 1], "1/2"), rational("-1", "1/3")]},
     [(1, 1), (2, 1)]),
    ({"prime": 5, "pairs": [rational("1/2", "1"), rational("-1", "1/2")]},
     [(1, 1), (2, 1)]),
    ({"prime": 3, "pairs": [rational("1", "1/3")]}, [(1,), (2,), (3,)]),
]
ROUNDTRIP_RESIDUES = 6  # per configuration, in data/roundtrip.json
ROUNDTRIP_CYCLE = ROUNDTRIP_RESIDUES * len(ROUNDTRIP_CONFIGS)
ROUNDTRIP_OPS = 8 * ROUNDTRIP_CYCLE

# oracle-kronecker: fixed family members and univariate octics from
# data/oracle.json, plus seeded products that are reducible by construction
ORACLE_PRODUCTS = 100


def load(name):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


class Op:
    """One closed-loop operation: ``run()`` is timed, ``check`` is not."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def summary(outcome):
    """Short text of an outcome, for digests and messages."""
    if isinstance(outcome, lifting.LiftingCertificate):
        residue = outcome.residue.to_str() if outcome.residue else "-"
        return f"{outcome.verdict} {residue}"
    if isinstance(outcome, tuple):
        return " / ".join(summary(o) for o in outcome)
    return str(outcome)


# ---------------------------------------------------------------------
# ops


def certify_text(config, text, names):
    f = parse.parse_polynomial(text, names)
    cert = lifting.certify_irreducible(f, config, names=names)
    cert.to_json()
    return cert


def certify_cli(pair_doc, text, names):
    """What one ``liftcert certify`` call does: validate the pairs first."""
    return certify_text(make_config(pair_doc), text, names)


def roundtrip(config, residue_doc, seed, mutation):
    T = lifting.residue_from_json(residue_doc, config)
    f = lifting.generate_lifting(T, config, seed)
    cert = lifting.certify_irreducible(f, config)
    cert.to_json()
    if mutation == "plus-one":
        mutant = f + MultiPoly.constant(f.nvars, 1)
    else:  # double the leading coefficient
        lead = max(f.terms, key=grlex_key)
        mutant = f + MultiPoly(f.nvars, {lead: f.terms[lead]})
    rejected = lifting.certify_irreducible(mutant, config)
    rejected.to_json()
    return cert, rejected


def factor_text(text, names):
    f = parse.parse_polynomial(text, names)
    result = oracle.brute_factor(f)
    json.dumps({
        "scalar": str(result.scalar),
        "factors": [
            {"factor": g.to_str(names), "multiplicity": m}
            for g, m in result.factors
        ],
        "irreducible": result.irreducible,
    })
    return result.irreducible


# ---------------------------------------------------------------------
# checks


def check_certificate(verdicts, residue=None, oracle_irreducible=None):
    """Check of a certify outcome against answers known in advance."""

    def check(cert):
        if cert == GUARD:
            return None
        if cert.verdict not in verdicts:
            return f"verdict {cert.verdict}, expected one of {sorted(verdicts)}"
        if residue is not None and cert.residue != residue:
            return (
                f"residue {cert.residue.to_str()} differs from the "
                f"generating T {residue.to_str()}"
            )
        if cert.certified and oracle_irreducible is False:
            return "Certified, but the oracle factors the input"
        return None

    return check


def check_roundtrip(residue):
    accept = check_certificate({CERTIFIED}, residue)

    def check(outcome):
        if outcome == GUARD:
            return None
        cert, rejected = outcome
        if rejected.verdict != NOT_A_LIFTING:
            return f"mutated input got {rejected.verdict}, expected NotALifting"
        return accept(cert)

    return check


def check_oracle(expected):
    def check(irreducible):
        if irreducible == GUARD or irreducible == expected:
            return None
        return f"oracle says irreducible={irreducible}, expected {expected}"

    return check


# ---------------------------------------------------------------------
# inputs


def family_poly(a, b, c, d):
    return MultiPoly(2, {
        (2, 2): Fraction(1), (1, 1): Fraction(a), (1, 0): Fraction(b),
        (0, 1): Fraction(c), (0, 0): Fraction(d),
    })


def family_oracle(gauss_doc):
    """(a, b, c, d) -> brute_factor's irreducibility answer."""
    bits = gauss_doc["oracle_irreducible"]
    return {
        abcd: bits[k] == "1"
        for k, abcd in enumerate(itertools.product(range(9), repeat=4))
    }


def gauss_family(rng):
    """All 6,561 members of x^2y^2 + a*xy + b*x + c*y + d, a..d in 0..8,
    with Gauss pairs at p = 3, in seeded order."""
    doc = load("gauss.json")
    oracle_answer = family_oracle(doc)
    reducible = {tuple(r) for r in doc["reducible_residues"]}
    config = make_config(gauss_pairs(3, 2))
    field = config.field
    residues = {}
    for cls in itertools.product(range(3), repeat=4):
        a, b, c, d = (field.from_int(k) for k in cls)
        residues[cls] = ResiduePoly(field, 2, {
            (2, 2): field.one, (1, 1): a, (1, 0): b, (0, 1): c, (0, 0): d,
        })
    names = VARIABLES[:2]
    members = list(itertools.product(range(9), repeat=4))
    rng.shuffle(members)
    ops = []
    for abcd in members:
        cls = tuple(k % 3 for k in abcd)
        verdict = REDUCIBLE if cls in reducible else CERTIFIED
        text = family_poly(*abcd).to_str(names)
        ops.append(Op(
            text,
            lambda text=text: certify_text(config, text, names),
            check_certificate({verdict}, residues[cls], oracle_answer[abcd]),
        ))
    return ops


def residue_search(rng):
    """Seeded liftings of 32 distinct residues sized so that the
    exhaustive divisor search dominates, plus the three ceiling probes."""
    pools = load("residues.json")
    ops = []
    for name, (pair_doc, *_) in RESIDUE_CLASSES.items():
        config = make_config(pair_doc)
        names = VARIABLES[:config.nvars]
        pool = pools[name]
        for residue_doc, verdict in (
            [(doc, CERTIFIED) for doc in pool["irreducible"]]
            + [(doc, REDUCIBLE) for doc in pool["reducible"]]
        ):
            T = lifting.residue_from_json(residue_doc, config)
            f = lifting.generate_lifting(T, config, rng.randint(1, 10 ** 6))
            text = f.to_str(names)
            ops.append(Op(
                f"{name} T={T.to_str()}",
                lambda pair_doc=pair_doc, text=text, names=names:
                    certify_cli(pair_doc, text, names),
                check_certificate({verdict}, T),
            ))
    for label, pair_doc, text, verdicts in PROBES:
        names = VARIABLES[:len(pair_doc["pairs"])]
        ops.append(Op(
            label,
            lambda pair_doc=pair_doc, text=text, names=names:
                certify_cli(pair_doc, text, names),
            check_certificate(verdicts),
        ))
    rng.shuffle(ops)
    return ops


def oracle_kronecker(rng):
    """brute_factor on family members, univariate octics, and products
    (x*y + a*x + b)*(x*y + c*y + d) and quartic*quartic."""
    doc = load("oracle.json")
    oracle_answer = family_oracle(load("gauss.json"))
    cases = []
    for abcd in doc["family"]:
        cases.append((family_poly(*abcd), oracle_answer[tuple(abcd)]))
    for entry in doc["univariate"]:
        f = MultiPoly.from_univariate(1, 0, entry["coeffs"])
        cases.append((f, entry["irreducible"]))
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    xy = x * y
    for _ in range(ORACLE_PRODUCTS):
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        one = MultiPoly.constant(2, 1)
        f = (xy + x.scale(a) + one.scale(b)) * (xy + y.scale(c) + one.scale(d))
        cases.append((f, False))
    for _ in range(ORACLE_PRODUCTS):
        quartics = [
            MultiPoly.from_univariate(
                1, 0, [rng.choice([-2, -1, 1, 2])]
                + [rng.randint(-2, 2) for _ in range(3)] + [1]
            )
            for _ in range(2)
        ]
        cases.append((quartics[0] * quartics[1], False))
    rng.shuffle(cases)
    ops = []
    for f, irreducible in cases:
        names = VARIABLES[:f.nvars]
        text = f.to_str(names)
        ops.append(Op(
            text,
            lambda text=text, names=names: factor_text(text, names),
            check_oracle(irreducible),
        ))
    return ops


def roundtrip_mixed(rng):
    """residue JSON -> generate_lifting -> certify -> JSON, then certify
    a mutated copy that must be rejected."""
    pools = load("roundtrip.json")
    configs = []
    for (pair_doc, _), residue_docs in zip(ROUNDTRIP_CONFIGS, pools):
        config = make_config(pair_doc)
        configs.append((config, [
            (doc, lifting.residue_from_json(doc, config)) for doc in residue_docs
        ]))
    # every (residue, mutation) pair gets the same share of the ops, so
    # that the seed varies only the liftings and the order
    ops = []
    for k in range(ROUNDTRIP_OPS):
        config, residues = configs[k % len(configs)]
        residue_doc, T = residues[k // len(configs) % len(residues)]
        mutation = ("plus-one", "double-lead")[k // ROUNDTRIP_CYCLE % 2]
        seed = rng.randint(1, 10 ** 6)
        ops.append(Op(
            f"T={T.to_str()} seed={seed} {mutation}",
            lambda config=config, doc=residue_doc, seed=seed, mutation=mutation:
                roundtrip(config, doc, seed, mutation),
            check_roundtrip(T),
        ))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "gauss-family": gauss_family,
    "residue-search": residue_search,
    "oracle-kronecker": oracle_kronecker,
    "roundtrip-mixed": roundtrip_mixed,
}


def build(name, seed):
    """The op list of a workload; the same seed gives the same ops."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
