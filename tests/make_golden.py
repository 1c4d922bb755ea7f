"""Golden corpora for the certificate and CLI output.

Each corpus is a list of (key, text) pairs, where the text is exactly
what the library or the command line prints for one input.
``tests/golden.json`` stores a SHA-256 digest per corpus plus the full
text of a few representative entries, so that a failing comparison shows
a readable diff.  ``test_golden.py`` rebuilds the corpora and compares.

Regenerate only when an output change is intended:

    PYTHONPATH=src python tests/make_golden.py

Compare without writing, with the standard library only (no pytest);
this exits 1 and names the corpora that differ:

    PYTHONPATH=src python tests/make_golden.py --check

Reachable verdicts covered: Certified, ResidueReducible,
ResidueIsVariable, and NotALifting at condition (i) (per-variable degree,
total degree, monic leading coefficient) and condition (ii) (w_total).
The marginal, residue-degree and residue-monic checks cannot fail once
the earlier ones pass: the top expansion index of a monic f has digit 1
and value exactly the lifting target, so it bounds every marginal from
above and always contributes Z^t with coefficient 1 to the residue.
Condition (iii) fails when a contributing index is not a multiple of
e, which two ramified pairs whose e share a factor allow (index (1, 1)
of x^2*y^2 + 2*x*y + 4 with delta 1/2 twice at p = 2).  That check is
recorded only when it fails, and no corpus reaches the failure, so the
corpora do not show it; tests/test_lifting.py and tests/test_cli.py do.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from liftcert import (
    Inert,
    MultiPoly,
    PairConfig,
    RationalCenter,
    ResiduePoly,
    certify_irreducible,
    check_lifting,
    generate_lifting,
    parse_polynomial,
)
from liftcert.cli import main as cli_main
from liftcert.errors import ConfigError
from liftcert.exactnum import Val, vp
from liftcert.valuation import pair_specs_to_json

GOLDEN_PATH = Path(__file__).with_name("golden.json")
NAMES = ["x", "y", "z"]


def rc(center, delta):
    return RationalCenter(Fraction(center), Fraction(delta))


def inert(phi, delta):
    return Inert(tuple(phi), Fraction(delta))


# (label, prime, specs, residue degree plans) for generated liftings:
# rational centres 0, 1, -1 and 1/2, ramified deltas, inert phi over
# F_4 and F_9, and mixed inert and rational configurations
GENERATED_CONFIGS = [
    ("rc0-d1-p2", 2, [rc(0, 1)], [(1,), (2,)]),
    ("rc1-d1/2-p2", 2, [rc(1, "1/2")], [(1,), (2,)]),
    ("rc-1-d1/3-p3", 3, [rc(-1, "1/3")], [(1,), (2,)]),
    ("rc1/2-d0-p5", 5, [rc("1/2", 0)], [(1,), (2,)]),
    ("rc1/2-d1/2-p3", 3, [rc("1/2", "1/2")], [(1,), (2,)]),
    ("gauss2-p3", 3, [rc(0, 0), rc(0, 0)], [(1, 1), (2, 1), (2, 2)]),
    ("ramified2-p2", 2, [rc(0, "1/2"), rc(0, "1/3")], [(1, 1), (2, 1)]),
    ("rc1-rc-1-p5", 5, [rc(1, "1/2"), rc(-1, 0)], [(1, 1), (2, 1)]),
    ("gauss3-p2", 2, [rc(0, 0)] * 3, [(1, 1, 1)]),
    ("inert-F4", 2, [inert((1, 1, 1), "1/2")], [(1,), (2,)]),
    ("inert-F9", 3, [inert((1, 0, 1), "1/2")], [(1,), (2,)]),
    ("inert-F9-d1", 3, [inert((2, 1, 1), 1)], [(1,)]),
    ("mixed-F4", 2, [inert((1, 1, 1), "1/2"), rc(0, "1/3")],
     [(1, 1), (2, 1)]),
    ("mixed-F4-rc1", 2, [inert((1, 1, 1), 1), rc(1, 0)], [(1, 1)]),
    ("mixed-F9", 3, [inert((1, 0, 1), "1/2"), rc(-1, "1/3")],
     [(1, 1), (2, 1)]),
    ("mixed-F9-rc1/2", 3, [rc("1/2", 1), inert((1, 0, 1), "1/2")],
     [(1, 1)]),
]
RESIDUES_PER_CONFIG = 5

# hand-picked inputs whose certificates are stored in full
REPRESENTATIVE = [
    ("worked-example", 3, [rc(0, 0), rc(0, 0)],
     "x^2*y^2 + 3*x*y + 6*x + 3*y + 1"),
    ("reducible", 3, [rc(0, 0), rc(0, 0)], "x^2*y^2 - 1"),
    ("is-variable", 2, [rc(0, "1/2")], "x^2 + 2*x + 4"),
    ("not-lifting-i-degree", 2, [rc(0, "1/2")], "2*x"),
    ("not-lifting-i-total", 3, [rc(0, 0), rc(0, 0)], "x + y"),
    ("not-lifting-i-total-mixed", 3, [rc(0, 0), rc(0, 0)],
     "x^2*y^2 + x^3*y"),
    ("not-lifting-i-monic", 3, [rc(0, 0), rc(0, 0)], "2*x^2*y^2 + 1"),
    ("not-lifting-i-monic-eisenstein", 2, [rc(0, "1/2")], "3*x^2 + 2"),
    ("not-lifting-ii-w", 2, [rc(0, "1/2")], "x^2 + x"),
    ("not-lifting-ii-w-gauss", 3, [rc(0, 0), rc(0, 0)],
     "x^2*y^2 + 1/3*x"),
    ("eisenstein-deg5", 2, [rc(0, "1/5")], "x^5 + 4*x^2 + 2"),
    ("center-1", 2, [rc(1, "1/2")], "x^2 - 2*x + 3"),
    ("center-minus-1", 3, [rc(-1, "1/3")], "x^3 + 3*x^2 + 3*x + 4"),
    ("center-half", 3, [rc("1/2", "1/2")], "x^2 - x + 13/4"),
    ("center-half-reducible", 5, [rc("1/2", 0)], "x^2 - x + 1/4"),
    ("ramified-2var", 2, [rc(0, "1/2"), rc(0, "1/3")],
     "x^2*y^3 + 4*x*y + 4"),
    ("ramified-2var-not-lifting", 2, [rc(0, "1/2"), rc(0, "1/3")],
     "x^2*y^3 + 2*x*y + 2"),
    ("inert-F9", 3, [inert((1, 0, 1), "1/2")], "x^4 + 2*x^2 + 4"),
    ("inert-F9-generator", 3, [inert((1, 0, 1), "1/2")],
     "x^4 + 2*x^2 + 3*x + 1"),
    ("inert-F4", 2, [inert((1, 1, 1), "1/2")],
     "x^4 + 2*x^3 + 3*x^2 + 2*x + 3"),
    ("inert-F9-not-lifting", 3, [inert((1, 0, 1), "1/2")], "x^3 + 1"),
    ("mixed-F9-reducible", 3, [inert((1, 0, 1), "1/2"), rc(0, "1/3")],
     "x^4*y^3 + 2*x^2*y^3 + y^3"),
    ("mixed-F9-lifting", 3, [inert((1, 0, 1), "1/2"), rc(0, "1/3")],
     "x^4*y^3 + 2*x^2*y^3 + y^3 + 9*x"),
    ("mixed-F4-center-1", 2, [inert((1, 1, 1), 1), rc(1, 0)],
     "x^2*y - x^2 + x*y - x + y + 1"),
    ("gauss-3var", 2, [rc(0, 0)] * 3, "x*y*z + x + 1"),
    ("gauss-3var-variable-free", 2, [rc(0, 0)] * 3, "x*y*z + 1"),
]

# CLI commands stored in full: (command, representative label)
REPRESENTATIVE_CLI = [
    ("expand", "worked-example"),
    ("value", "worked-example"),
    ("residue", "worked-example"),
    ("expand", "inert-F9-generator"),
    ("value", "mixed-F9-lifting"),
    ("residue", "mixed-F9-lifting"),
    ("residue", "center-half"),
    ("residue", "eisenstein-deg5"),
]


def certificate_text(f, config, names=None):
    return certify_irreducible(f, config, names=names).to_json()


def run_cli(argv):
    """Exit code and stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n{out.getvalue()}"


class CliRunner:
    """Runs CLI commands against pair files in a temporary directory."""

    def __init__(self, tmpdir):
        self.tmpdir = Path(tmpdir)
        self.files = {}

    def pair_file(self, p, specs):
        doc = json.dumps(pair_specs_to_json(specs, p), sort_keys=True)
        if doc not in self.files:
            path = self.tmpdir / f"pairs{len(self.files)}.json"
            path.write_text(doc)
            self.files[doc] = str(path)
        return self.files[doc]

    def json_command(self, command, p, specs, text):
        names = NAMES[:len(specs)]
        return run_cli([
            command, "--json", "--vars", ",".join(names),
            "--pairs", self.pair_file(p, specs), text,
        ])


def eisenstein_corpus():
    """The whole acceptance criterion-2 family."""
    out = []
    for p in (2, 3, 5):
        constants = [p] + ([3 * p] if vp(3 * p, p) == Val.finite(1) else [])
        for deg in range(2, 6):
            config = PairConfig([rc(0, Fraction(1, deg))], p)
            for middles in itertools.product((0, p, 2 * p), repeat=deg - 1):
                for const in constants:
                    coeffs = [const, *middles, 1]
                    f = MultiPoly.from_univariate(1, 0, coeffs)
                    out.append((f"p{p}:{coeffs}", certificate_text(f, config)))
    return out


def gauss_sample_corpus(stride=24):
    """Every stride-th member of the criterion-4 family at p = 3."""
    config = PairConfig([rc(0, 0), rc(0, 0)], 3)
    out = []
    for k, (a, b, c, d) in enumerate(itertools.product(range(9), repeat=4)):
        if k % stride:
            continue
        f = MultiPoly(2, {
            (2, 2): 1, (1, 1): a, (1, 0): b, (0, 1): c, (0, 0): d,
        })
        out.append((f"{a}{b}{c}{d}", certificate_text(f, config, NAMES[:2])))
    return out


def _random_residue(config, rng, t):
    field = config.field
    elems = list(field.elements())
    terms = {tuple(t): field.one}
    for exps in itertools.product(*(range(ti + 1) for ti in t)):
        if exps != tuple(t):
            c = rng.choice(elems)
            if not c.is_zero:
                terms[exps] = c
    return ResiduePoly(field, config.nvars, terms)


def _mutants(f, p):
    n = f.nvars
    x1 = MultiPoly.variable(n, 0)
    top = f.degree_in(0)
    return [
        ("plus-1", f + MultiPoly.constant(n, 1)),
        ("plus-p-x1", f + x1.scale(p)),
        ("plus-x1-below-top", f + x1 ** (top - 1)),
        ("times-p", f.scale(p)),
    ]


def generated_liftings():
    """(label, p, specs, f) for seeded liftings and their mutants."""
    rng = random.Random(20261018)
    out = []
    for label, p, specs, plans in GENERATED_CONFIGS:
        config = PairConfig(specs, p)
        made = 0
        attempts = 0
        while made < RESIDUES_PER_CONFIG:
            attempts += 1
            assert attempts < 1000, f"sampling stalled for {label}"
            T = _random_residue(config, rng, rng.choice(plans))
            try:
                f0 = generate_lifting(T, config, 0)
            except ConfigError:
                continue
            seed = rng.randint(1, 10 ** 6)
            f1 = generate_lifting(T, config, seed)
            key = f"{label}:{made}"
            out.append((f"{key}:seed0", p, specs, f0))
            out.append((f"{key}:seed{seed}", p, specs, f1))
            for name, g in _mutants(f1, p):
                out.append((f"{key}:{name}", p, specs, g))
            made += 1
    return out


def generated_corpus(entries):
    out = []
    for key, p, specs, f in entries:
        config = PairConfig(specs, p)
        out.append((key, certificate_text(f, config, NAMES[:len(specs)])))
    return out


def cli_corpus(entries, runner):
    """expand/value --json on the seeded liftings and their first
    mutant, residue --json on those that are liftings."""
    out = []
    for key, p, specs, f in entries:
        if not key.endswith(("seed0", "plus-1")):
            continue
        text = f.to_str(NAMES[:len(specs)])
        lifting = check_lifting(f, PairConfig(specs, p)).ok
        commands = ("expand", "value") + (("residue",) if lifting else ())
        for command in commands:
            out.append((f"{command}:{key}",
                        runner.json_command(command, p, specs, text)))
    return out


def representative_entries(runner):
    out = []
    by_label = {}
    for label, p, specs, text in REPRESENTATIVE:
        names = NAMES[:len(specs)]
        f = parse_polynomial(text, names)
        by_label[label] = (p, specs, f)
        out.append((f"certify:{label}",
                    certificate_text(f, PairConfig(specs, p), names)))
    for command, label in REPRESENTATIVE_CLI:
        p, specs, f = by_label[label]
        out.append((f"{command}:{label}", runner.json_command(
            command, p, specs, f.to_str(NAMES[:len(specs)]))))
    out.append(("cli:--version", run_cli(["--version"])))
    return out


def digest(corpus):
    h = hashlib.sha256()
    for key, text in corpus:
        h.update(json.dumps([key, text]).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def build():
    """Every corpus, plus the representative entries, keyed by name."""
    generated = generated_liftings()
    with tempfile.TemporaryDirectory() as tmpdir:
        runner = CliRunner(tmpdir)
        corpora = {
            "eisenstein": eisenstein_corpus(),
            "gauss-sample": gauss_sample_corpus(),
            "generated": generated_corpus(generated),
            "cli": cli_corpus(generated, runner),
        }
        representative = representative_entries(runner)
    return corpora, representative


def golden_document():
    corpora, representative = build()
    return {
        "corpora": {
            name: {"count": len(corpus), "sha256": digest(corpus)}
            for name, corpus in corpora.items()
        },
        "representative": [
            {"key": key, "text": text} for key, text in representative
        ],
    }


def differing(doc, stored):
    """Names of the corpora, and "representative", where doc and the
    stored golden document differ."""
    names = dict.fromkeys([*stored["corpora"], *doc["corpora"]])
    out = [name for name in names
           if stored["corpora"].get(name) != doc["corpora"].get(name)]
    if stored["representative"] != doc["representative"]:
        out.append("representative")
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Write tests/golden.json, or compare with it.")
    parser.add_argument("--check", action="store_true",
                        help="compare with golden.json instead of writing it")
    args = parser.parse_args()
    doc = golden_document()
    if args.check:
        differ = differing(doc, json.loads(GOLDEN_PATH.read_text()))
        if differ:
            print(f"differ from {GOLDEN_PATH.name}: {', '.join(differ)}",
                  file=sys.stderr)
            sys.exit(1)
        print(f"all corpora match {GOLDEN_PATH.name}", file=sys.stderr)
        sys.exit(0)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    for name, info in doc["corpora"].items():
        print(f"{name}: {info['count']} entries", file=sys.stderr)
    print(f"{len(doc['representative'])} representative entries",
          file=sys.stderr)
