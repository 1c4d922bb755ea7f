"""One cold repetition of a workload: set up, run every op once, report.

run.py starts this in a fresh interpreter for every repetition, so the
library's module-level caches start empty, as they do for a CLI user.
The last line of stdout is one JSON object with the repetition's numbers.

Times are scaled to a reference speed of the machine.  The speed of a
shared host drifts: identical work has run 2x slower or faster from one
minute to the next, and it switches between a fast and a slow state,
about 1.6x apart, from one tenth of a second to the next, so one op's
time depends on the state it ran in.  So the repetition times a short
fixed pure-Python loop (``calibrate``) SETUP_CALIBRATIONS times after
set-up, and once after every SEGMENT_S seconds of ops.  It multiplies
each op time by CALIBRATION_REFERENCE_S divided by the mean of the two
loop times around it, and the set-up time by CALIBRATION_REFERENCE_S
divided by the mean of the loop times after set-up.  The reference
speed is the one at which the loop takes 4 ms.  The raw wall-clock
figures are reported beside the scaled ones.

With ``--setup-only`` the worker sets up, times the loop
SETUP_CALIBRATIONS times, and reports only the set-up time: run.py takes
several such samples per run, because one set-up takes well under a
second and varies more than the ops do.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402  (imports liftcert: part of the set-up time)
from liftcert import ResourceLimitExceeded  # noqa: E402

MAX_REPORTED_FAILURES = 20
CALIBRATION_REFERENCE_S = 0.004
SEGMENT_S = 0.05
SETUP_CALIBRATIONS = 5


def calibrate(_data=[]):
    """Seconds taken by a fixed loop of dict updates and Fraction sums,
    the operations the library spends its time in, that also reads
    integers spread over about 2 MB of memory; no liftcert code."""
    if not _data:
        _data.extend(range(10 ** 6, 10 ** 6 + 50_000))
    gc.disable()
    start = time.perf_counter()
    table = {}
    total = Fraction(0)
    for i in range(3200):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + _data[i * 7919 % 50_000]
        if i % 8 == 0:
            total += Fraction(i % 7, 1 + i % 5)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def reached_irreducibility(outcome):
    """Certificates in an outcome whose certify got to the irreducibility
    step (guard trips are counted by the tracer)."""
    certs = outcome if isinstance(outcome, tuple) else (outcome,)
    return sum(
        getattr(c, "verdict", None) in (workloads.CERTIFIED, workloads.REDUCIBLE)
        for c in certs
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=None,
                        help="run only the first N ops (for quick checks)")
    parser.add_argument("--spans", default=None,
                        help="trace the layers and write the spans to this file")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, then report the set-up time only")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)[:args.ops]
    tracer = None
    if args.spans:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    setup_raw_s = time.perf_counter() - START
    # the inputs and expected answers live for the whole repetition; keep
    # the collector from walking them again and again, as it would not in
    # a CLI process that holds one polynomial
    gc.freeze()

    calibrations = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    setup_s = setup_raw_s * CALIBRATION_REFERENCE_S / statistics.fmean(calibrations)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_raw_s}))
        return 0

    clock = time.perf_counter
    before = calibrations[-1]
    raw = []  # wall-clock op times
    latencies = []  # op times scaled to the reference speed
    segment_start, segment_s = 0, 0.0
    digest = hashlib.sha256()
    failures = []
    guard_inputs = []
    decided = 0
    reached = 0
    for index, op in enumerate(ops):
        if tracer:
            tracer.op = index
        begin = clock()
        try:
            outcome = op.run()
        except ResourceLimitExceeded:
            outcome = workloads.GUARD
        except Exception:  # a crash is a wrong answer; record it, go on
            outcome = None
            error = traceback.format_exc(limit=-3)
        raw.append(clock() - begin)
        segment_s += raw[-1]
        if segment_s >= SEGMENT_S or index == len(ops) - 1:
            after = calibrate()
            calibrations.append(after)
            scale = CALIBRATION_REFERENCE_S / ((before + after) / 2)
            latencies += [t * scale for t in raw[segment_start:]]
            before, segment_start, segment_s = after, len(raw), 0.0

        if outcome is None:
            problem = "raised " + error.strip().splitlines()[-1]
        else:
            problem = op.check(outcome)
        if problem:
            failures.append(f"{op.label}: {problem}")
        if outcome == workloads.GUARD:
            guard_inputs.append(op.label)
        elif outcome is not None:
            decided += 1
            reached += reached_irreducibility(outcome)
        digest.update(f"{index} {workloads.summary(outcome)}\n".encode())

    op_s = sum(latencies)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": tracer is not None,
        "ops": len(ops),
        "op_s": op_s,
        "ops_per_s": len(ops) / op_s,
        "decided_frac": decided / len(ops),
        "setup_s": setup_s,
        "calibration_ms": 1e3 * statistics.median(calibrations),
        "raw_op_s": sum(raw),
        "latencies_ms": [1e3 * t for t in latencies],
        "raw_latencies_ms": [1e3 * t for t in raw],
        "raw_setup_s": setup_raw_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "guard_inputs": guard_inputs,
        "digest": digest.hexdigest(),
    }
    if tracer:
        tracer.uninstall()
        report["layers"] = tracer.summary(sum(raw), reached)
        tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
