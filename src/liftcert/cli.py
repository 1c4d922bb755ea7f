"""Command-line surface: parsing, configuration, subcommands, and
certificate I/O.

Results go to stdout, diagnostics to stderr.  Exit codes:

    0  Certified, or plain subcommand success
    2  not a lifting (diagnosis printed)
    3  valid lifting, but the residue is reducible or excluded
    4  input / parse / configuration error, or a usage error
    5  resource guard exceeded
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import DEFAULT_CANDIDATE_LIMIT, ConfigError, ResourceLimitExceeded
from .lifting import (
    VERDICT_CERTIFIED,
    VERDICT_NOT_A_LIFTING,
    certify_irreducible,
    check_lifting,
    generate_lifting,
    residue_from_json,
    residue_json,
    suggest_pairs,
)
from .multipoly import grlex_key
from .oracle import brute_factor
from .parse import ParseError, check_coeffs, parse_polynomial
from .valuation import (
    PairConfig,
    load_pair_specs,
    pair_specs_to_json,
    read_json,
)

EXIT_OK = 0
EXIT_NOT_A_LIFTING = 2
EXIT_RESIDUE_EXCLUDED = 3
EXIT_INPUT_ERROR = 4
EXIT_GUARD = 5


def _limit(text):
    """--limit: a positive integer; anything else is a usage error."""
    try:
        limit = int(text)
    except ValueError:
        limit = 0
    if limit < 1:
        raise argparse.ArgumentTypeError(
            f"--limit must be a positive integer, got {text!r}")
    return limit


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liftcert",
        description="Certify irreducibility of multivariate polynomials "
        "over Q by verifying p-adic lifting conditions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"liftcert {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    arguments = {
        "--vars": dict(required=True, help="comma-separated variable "
                       "names, order fixes indices"),
        "--prime": dict(type=int, default=None),
        "--limit": dict(type=_limit, default=DEFAULT_CANDIDATE_LIMIT,
                        help="work bound of every resource guard "
                        "(default 10^6)"),
        "--json": dict(action="store_true", dest="as_json"),
        "--pairs": dict(required=True, help="pair-spec JSON file"),
        "expr": dict(help="polynomial expression"),
    }

    def add(p, *names):
        # each subcommand takes only the arguments its handler reads
        for name in ("--vars",) + names:
            p.add_argument(name, **arguments[name])

    for command, text in (
        ("certify", "emit an irreducibility certificate"),
        ("expand", "print the phi-adic expansion table"),
        ("value", "print w(f), marginals, contributing set"),
        ("residue", "print the normalized residue T"),
    ):
        add(sub.add_parser(command, help=text),
            "--prime", "--limit", "--json", "--pairs", "expr")

    gen = sub.add_parser("generate", help="build a lifting from a residue file")
    add(gen, "--prime", "--limit", "--pairs")
    gen.add_argument("residue_file", help="residue polynomial JSON file")
    gen.add_argument("--seed", type=int, default=0)

    add(sub.add_parser("factor-oracle",
                       help="brute-force factorization over Q"),
        "--limit", "--json", "expr")
    add(sub.add_parser("suggest", help="print candidate pair configurations"),
        "--prime", "expr")

    return parser


def _names(args):
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not names or len(set(names)) != len(names):
        raise ConfigError(f"--vars must list distinct names, got {args.vars!r}")
    return names


def _config(args, names):
    specs, file_prime = load_pair_specs(args.pairs)
    if args.prime is not None and args.prime != file_prime:
        raise ConfigError(
            f"--prime {args.prime} contradicts pair file prime {file_prime}"
        )
    if len(specs) != len(names):
        raise ConfigError(
            f"pair file declares {len(specs)} pairs but --vars names "
            f"{len(names)} variables"
        )
    return PairConfig(specs, file_prime, args.limit)


def _cmd_certify(args):
    names = _names(args)
    config = _config(args, names)
    f = parse_polynomial(args.expr, names)
    cert = certify_irreducible(f, config, names=names)
    if args.as_json:
        print(cert.to_json())
    else:
        for check in cert.checks:
            mark = "ok" if check.passed else "FAIL"
            print(f"  {check.name}: {check.lhs} vs {check.rhs} [{mark}]")
        print(f"verdict: {cert.verdict}")
        if cert.reason:
            print(f"reason: {cert.reason}")
    if cert.verdict == VERDICT_CERTIFIED:
        return EXIT_OK
    if cert.verdict == VERDICT_NOT_A_LIFTING:
        return EXIT_NOT_A_LIFTING
    return EXIT_RESIDUE_EXCLUDED


def _cmd_expand(args):
    names = _names(args)
    config = _config(args, names)
    f = parse_polynomial(args.expr, names)
    table = config.expansion_table(f)
    for digit, _ in table.values():
        check_coeffs(digit)
    if args.as_json:
        doc = [
            {
                "index": list(idx),
                "digit": table[idx][0].to_str(names),
                "content": str(table[idx][1]),
            }
            for idx in sorted(table, key=grlex_key)
        ]
        print(json.dumps(doc, indent=2))
    else:
        for idx in sorted(table, key=grlex_key):
            digit, content = table[idx]
            print(f"  a_{list(idx)} = {digit.to_str(names)}   (content {content})")
    return EXIT_OK


def _cmd_value(args):
    names = _names(args)
    config = _config(args, names)
    f = parse_polynomial(args.expr, names)
    w, contributing, marginals = config.valuation(config.expansion_table(f))
    # None is the +infinity of f = 0
    w, *marginals = ["inf" if v is None else str(v) for v in [w, *marginals]]
    if args.as_json:
        print(
            json.dumps(
                {
                    "w": w,
                    "marginals": marginals,
                    "contributing": [list(i) for i in contributing],
                },
                indent=2,
            )
        )
    else:
        print(f"w(f) = {w}")
        for name, m in zip(names, marginals):
            print(f"w_{name}(f) = {m}")
        print(f"contributing indices: {[list(i) for i in contributing]}")
    return EXIT_OK


def _cmd_residue(args):
    names = _names(args)
    config = _config(args, names)
    f = parse_polynomial(args.expr, names)
    report = check_lifting(f, config)
    if not report.ok:
        print(f"not a lifting: {report.reason}", file=sys.stderr)
        return EXIT_NOT_A_LIFTING
    if args.as_json:
        print(residue_json(report.residue))
    else:
        print(report.residue.to_str())
    return EXIT_OK


def _cmd_generate(args):
    names = _names(args)
    config = _config(args, names)
    doc = read_json(args.residue_file, "residue document")
    residue = residue_from_json(doc, config)
    f = generate_lifting(residue, config, args.seed)
    print(check_coeffs(f).to_str(names))
    return EXIT_OK


def _cmd_factor_oracle(args):
    names = _names(args)
    f = parse_polynomial(args.expr, names)
    if f.is_zero:
        raise ConfigError("f must be nonzero")
    result = brute_factor(f, args.limit)
    if args.as_json:
        print(
            json.dumps(
                {
                    "scalar": str(result.scalar),
                    "factors": [
                        {"factor": g.to_str(names), "multiplicity": m}
                        for g, m in result.factors
                    ],
                    "irreducible": result.irreducible,
                },
                indent=2,
            )
        )
    else:
        if result.irreducible:
            print("irreducible")
        parts = [str(result.scalar)] if result.scalar != 1 else []
        for g, m in result.factors:
            base = f"({g.to_str(names)})"
            parts.append(base if m == 1 else f"{base}^{m}")
        print(" * ".join(parts) if parts else "1")
    return EXIT_OK


def _cmd_suggest(args):
    names = _names(args)
    if args.prime is None:
        raise ConfigError("suggest requires --prime")
    f = parse_polynomial(args.expr, names)
    configs = suggest_pairs(f, args.prime)
    docs = [pair_specs_to_json(specs, args.prime) for specs in configs]
    print(json.dumps(docs, indent=2))
    return EXIT_OK


_COMMANDS = {
    "certify": _cmd_certify,
    "expand": _cmd_expand,
    "value": _cmd_value,
    "residue": _cmd_residue,
    "generate": _cmd_generate,
    "factor-oracle": _cmd_factor_oracle,
    "suggest": _cmd_suggest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version, 2 on a usage error
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ResourceLimitExceeded as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ParseError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry():  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    entry()
