"""Traced mode: spans around the calls into each layer, recorded from
outside the library.

Each public function is wrapped at the name its callers use.  A
``from .x import y`` binds ``y`` in the importing module when that
module loads, so patching only the defining module misses those calls:
``is_irreducible_multivariate`` is patched in ``liftcert.lifting``,
``phi_expand`` in ``liftcert.valuation``, and ``exact_divide`` in
``liftcert.oracle``, where ``brute_factor`` looks it up.  Methods are
patched on their class.

A span is ``[name, op, parent, start, end, guard]``.  Spans stay in
memory and are written out once, after the last op.
"""

import json
import time

from liftcert import (
    LiftingCertificate,
    MultiPoly,
    PairConfig,
    ResourceLimitExceeded,
    lifting,
    oracle,
    parse,
    valuation,
)

# (span name, owner, attribute); the owner is the module or class
# through which callers reach the function
TARGETS = [
    ("parse", parse, "parse_polynomial"),
    ("valuation.config", PairConfig, "__init__"),
    ("valuation.expand", PairConfig, "expansion_table"),
    ("multipoly.phi_expand", valuation, "phi_expand"),
    ("multipoly.shift", MultiPoly, "shift"),
    ("lifting.certify", lifting, "certify_irreducible"),
    ("lifting.check", lifting, "check_lifting"),
    ("lifting.render", LiftingCertificate, "to_json"),
    ("lifting.generate", lifting, "generate_lifting"),
    ("lifting.residue_from_json", lifting, "residue_from_json"),
    ("finitefield.irreducible", lifting, "is_irreducible_multivariate"),
    ("oracle.factor", oracle, "brute_factor"),
    ("oracle.exact_divide", oracle, "exact_divide"),
]

NAME, OP, PARENT, START, END, GUARD = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.expand_digits = 0
        self.saved = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else None, clock(), None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitExceeded:
                span[GUARD] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if name == "valuation.expand":
                self.expand_digits += len(result)
            return result

        return traced

    def install(self):
        for name, owner, attr in TARGETS:
            fn = getattr(owner, attr)
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self, op_seconds, reached):
        """Per-layer metrics of one traced repetition.

        ``op_seconds`` is the summed wall time of the ops, ``reached`` the
        number of certify calls that got a verdict from the irreducibility
        step; the calls that tripped its guard are added here.
        """
        total = {}
        child = {}
        calls = {}
        top = 0.0
        guard_trips = 0
        generate_checks = 0
        for span in self.spans:
            name = span[NAME]
            duration = span[END] - span[START]
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            parent = span[PARENT]
            if parent is None:
                top += duration
            else:
                parent_name = self.spans[parent][NAME]
                child[parent_name] = child.get(parent_name, 0.0) + duration
                if name == "lifting.check" and parent_name == "lifting.generate":
                    generate_checks += 1
            if name == "finitefield.irreducible" and span[GUARD]:
                guard_trips += 1

        def self_time(name):
            return total.get(name, 0.0) - child.get(name, 0.0)

        misses = calls.get("finitefield.irreducible", 0)
        reached += guard_trips
        return {
            "parse.s": total.get("parse", 0.0),
            "parse.calls": calls.get("parse", 0),
            "valuation.config_s": total.get("valuation.config", 0.0),
            "valuation.expand_s": total.get("valuation.expand", 0.0),
            "valuation.expand_digits": self.expand_digits,
            "multipoly.phi_expand_s": total.get("multipoly.phi_expand", 0.0),
            "multipoly.shift_s": total.get("multipoly.shift", 0.0),
            "lifting.check_self_s": self_time("lifting.check"),
            "lifting.certify_self_s": self_time("lifting.certify"),
            "lifting.render_s": total.get("lifting.render", 0.0),
            "finitefield.irreducible_s": total.get("finitefield.irreducible", 0.0),
            "finitefield.irreducible_calls": misses,
            "finitefield.guard_trips": guard_trips,
            "lifting.residue_cache_hit_ratio": 1 - misses / reached if reached else 0.0,
            "lifting.residue_cache_base": reached,
            "lifting.generate_s": total.get("lifting.generate", 0.0),
            "lifting.generate_checks": generate_checks,
            "oracle.factor_s": total.get("oracle.factor", 0.0),
            "oracle.exact_divide_calls": calls.get("oracle.exact_divide", 0),
            "oracle.exact_divide_s": total.get("oracle.exact_divide", 0.0),
            "trace.coverage": top / op_seconds if op_seconds else 0.0,
        }
