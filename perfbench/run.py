"""liftcert benchmark: one workload, cold repetitions, one JSON result.

    python3 perfbench/run.py --workload gauss-family --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it needs ``src/liftcert`` and
nothing outside the standard library.  Each repetition is a fresh
interpreter (worker.py) with PYTHONHASHSEED pinned, which sets up the
workload's inputs from the seed and runs every op once in a closed loop:
one caller, no threads, the next op starting when the previous one ends.
Repetitions go on while the next one is expected to end within
``--seconds``, and every metric is the median over them, except that
the latency percentiles are taken over each op's median time in the
repetitions, and that ``setup_s`` is the median over the repetitions and
fresh interpreters that only set up: at least SETUP_SAMPLES, and more
while the time left allows.  Times are scaled to a reference machine
speed; see worker.py.  The report line before the result also holds the
raw wall-clock medians.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions of the same inputs and reports the
per-layer metrics, including the tracing overhead.

Every answer is checked; the last line of stdout is the result, and the
exit code is 1 when an answer was wrong.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "liftcert"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 5  # set-up-only workers per untraced run, at least
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() or None


def run_worker(args, deadline, spans=None, setup_only=False):
    command = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.ops:
        command += ["--ops", str(args.ops)]
    if spans:
        command += ["--spans", str(spans)]
    if setup_only:
        command.append("--setup-only")
    pythonpath = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(pythonpath))
    # subprocess.run kills and reaps the worker if the timeout expires or
    # an exception interrupts the wait
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def median(reps, key):
    return statistics.median(rep[key] for rep in reps)


def op_times_ms(reps, key="latencies_ms"):
    """Each op's median time over the repetitions, which run the same ops
    in the same order."""
    return [statistics.median(times) for times in zip(*(rep[key] for rep in reps))]


def tail(times):
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it: the (TAIL_BEYOND + 1)-th largest time.  Falls back to the maximum
    when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / n,
            "samples_beyond": n - index - 1, "samples": n}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ops", type=int, default=None,
                        help="run only the first N ops of each repetition")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        parser.error("--seconds and --ops must be positive")
    if not (SOURCE / "__init__.py").is_file():
        print(f"no liftcert sources at {SOURCE}", file=sys.stderr)
        return 2

    # on SIGTERM, subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spans = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced, setups = [], [], []
    try:
        # repeat while the next repetition (or pair of them) is expected to
        # end within --seconds; there is always at least one
        while True:
            begin = time.monotonic()
            plain.append(run_worker(args, deadline))
            if args.trace:
                traced.append(run_worker(args, deadline, spans))
            now = time.monotonic()
            if now + (now - begin) - start > args.seconds:
                break
        # then the set-up samples, in the time left
        while not args.trace:
            begin = time.monotonic()
            setups.append(run_worker(args, deadline, setup_only=True))
            now = time.monotonic()
            if (len(setups) >= SETUP_SAMPLES
                    and now + (now - begin) - start > args.seconds):
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    failures = [f for rep in reps for f in rep["failures"]]
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        failures.append("repetitions of the same inputs gave different answers")
    times = op_times_ms(plain)
    latency_tail = tail(times)
    if args.trace:
        overhead = statistics.median(
            t["op_s"] / p["op_s"] for p, t in zip(plain, traced)
        )
        values = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name in PER_LAYER if name != "trace.overhead"
        }
        values["trace.overhead"] = overhead
        units = PER_LAYER
    else:
        values = {
            "ops_per_s": median(plain, "ops_per_s"),
            "latency_p50_ms": statistics.median(times),
            "latency_tail_ms": latency_tail["value"],
            "decided_frac": median(plain, "decided_frac"),
            "setup_s": median(setups + plain, "setup_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
        }
        units = END_TO_END

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_digest(),
        "pythonhashseed": "0",
        "tail": latency_tail,
        "guard_inputs": sorted({g for rep in reps for g in rep["guard_inputs"]}),
        "calibration_ms": median(plain, "calibration_ms"),
        "raw": {
            "ops_per_s": statistics.median(rep["ops"] / rep["raw_op_s"]
                                           for rep in plain),
            "latency_p50_ms": statistics.median(op_times_ms(plain, "raw_latencies_ms")),
            "setup_s": median(setups + plain, "raw_setup_s"),
        },
        "setup_samples": setups,
        "repetitions": [
            {k: v for k, v in rep.items()
             if k not in ("failures", "guard_inputs", "latencies_ms",
                          "raw_latencies_ms")}
            for rep in reps
        ],
        "failures": failures[:20],
    }
    print(json.dumps(report))
    for failure in failures[:20]:
        print(f"WRONG ANSWER {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(rep["ops"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
