"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root, workload, trace, ops, seed=3):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace), "--ops", str(ops)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def checkout_copy(tmp_path, with_sources=True):
    """A checkout with its own copy of the benchmark, to corrupt."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp_path


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, lines = bench(ROOT, workload, trace, ops=12)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def corrupt_gauss(data):
    doc = json.loads((data / "gauss.json").read_text())
    doc["reducible_residues"] = []  # every ResidueReducible verdict is now wrong
    (data / "gauss.json").write_text(json.dumps(doc))


def corrupt_oracle(data):
    doc = json.loads((data / "oracle.json").read_text())
    for entry in doc["univariate"]:
        entry["irreducible"] = not entry["irreducible"]
    (data / "oracle.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("workload, corrupt", [
    ("gauss-family", corrupt_gauss),
    ("oracle-kronecker", corrupt_oracle),
])
def test_gate_fires_on_a_wrong_expected_answer(tmp_path, workload, corrupt):
    root = checkout_copy(tmp_path)
    corrupt(root / "perfbench" / "data")
    code, lines = bench(root, workload, 0, ops=60)
    assert code == 1
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0


@pytest.mark.parametrize("workload", ["gauss-family", "roundtrip-mixed"])
def test_traced_and_untraced_runs_give_the_same_verdicts(workload):
    code, lines = bench(ROOT, workload, 1, ops=40)
    assert code == 0
    report = json.loads(lines[-2])
    plain = [r["digest"] for r in report["repetitions"] if not r["traced"]]
    traced = [r["digest"] for r in report["repetitions"] if r["traced"]]
    assert plain and traced and set(plain) == set(traced)
    assert json.loads(lines[-1])["metrics"]["trace.coverage"]["value"] > 0.5


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    root = checkout_copy(tmp_path, with_sources=False)
    code, lines = bench(root, "gauss-family", 0, ops=5)
    assert code != 0
    assert not any('"metrics"' in line for line in lines)


def test_trial_division_finds_factors_over_the_residue_field():
    sys.path.insert(0, str(ROOT / "src"))
    import make_expected
    import workloads
    from liftcert import lifting

    def residue(pair_doc, terms):
        config = workloads.make_config(pair_doc)
        doc = {"p": pair_doc["prime"],
               "coeffs": [{"exp": list(e), "c": c} for e, c in terms.items()]}
        return lifting.residue_from_json(doc, config), make_expected.residue_field(pair_doc)

    gauss2 = workloads.gauss_pairs(2, 2)
    # x*y + 1 is irreducible over F_2, x*y + x + y + 1 = (x + 1)*(y + 1)
    assert not make_expected.splits(*residue(gauss2, {(1, 1): "1", (0, 0): "1"}))
    assert make_expected.splits(*residue(
        gauss2, {(1, 1): "1", (1, 0): "1", (0, 1): "1", (0, 0): "1"}))
    # x^2 + x + 1 is irreducible over F_2 and splits over F_4
    univariate = {(2,): "1", (1,): "1", (0,): "1"}
    assert not make_expected.splits(*residue(workloads.gauss_pairs(2, 1), univariate))
    f4 = {"prime": 2, "pairs": [workloads.inert([1, 1, 1], "1/2")]}
    assert make_expected.splits(*residue(f4, univariate))
