"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --out baseline.json

Every workload of BENCHMARK.json is run for its run_seconds.  For each
workload and end-to-end metric it prints the median of the per-run
values and the distance between their first and third quartiles as a
share of the median, the figure that BENCHMARK.json's bounds are
compared with.  The same is recorded for the raw wall-clock figures
that the scaled times are made from (see worker.py).  ``--traced-seed``
adds one traced run per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    seconds = spec["run_seconds"]
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            report, result = run(workload, seed, seconds, 0)
            runs.append({
                "seed": seed,
                "repetitions": len(report["repetitions"]),
                "tail": report["tail"],
                "guard_inputs": report["guard_inputs"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "raw": report["raw"],
                "calibration_ms": report["calibration_ms"],
            })
            print(workload, seed, json.dumps(runs[-1]["metrics"]),
                  "raw", json.dumps(report["raw"]), flush=True)
        entry = {"runs": runs, "metrics": {}, "raw": {}}
        for name, bound in bounds.items():
            median, share = spread([r["metrics"][name] for r in runs])
            entry["metrics"][name] = {
                "median": median, "iqr_share": share, "bound": bound,
            }
            flag = "" if share < bound / 3 else "  <-- above a third of the bound"
            print(f"  {workload} {name}: median {median:.6g}, "
                  f"IQR/median {share:.4f} (bound {bound}){flag}", flush=True)
        raw = {name: [r["raw"][name] for r in runs] for name in runs[0]["raw"]}
        raw["calibration_ms"] = [r["calibration_ms"] for r in runs]
        for name, values in raw.items():
            median, share = spread(values)
            entry["raw"][name] = {"median": median, "iqr_share": share}
            print(f"  {workload} raw {name}: median {median:.6g}, "
                  f"IQR/median {share:.4f}", flush=True)
        if args.traced_seed is not None:
            report, result = run(workload, args.traced_seed, seconds, 1)
            entry["traced"] = {
                "seed": args.traced_seed,
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
            print(f"  {workload} traced:", json.dumps(entry["traced"]["metrics"]),
                  flush=True)
        summary[workload] = entry
    if args.out:
        environment = {k: report[k] for k in ("python", "nproc", "commit",
                                              "source_sha256", "seconds")}
        Path(args.out).write_text(
            json.dumps({"environment": environment, "workloads": summary},
                       indent=1) + "\n")


if __name__ == "__main__":
    main()
