"""Self-test of the benchmark at tiny sizes (`--smoke`).

It checks that every metric BENCHMARK.json names is emitted with its unit
and sample count, and that the correctness checks run and pass.  It does
not check speed.

    python3 -m pytest perfbench/test_run.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0

    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"])

    # the human-readable report gives each metric with unit and sample count
    reported = {line.split()[1]: line for line in lines
                if line.startswith("metric ")}
    for name, unit in expected.items():
        assert reported[name].endswith(")") and f" {unit} (n=" in reported[name]

    checks = {line.split()[1]: line.split()[2].rstrip(":")
              for line in lines if line.startswith("check ")}
    assert "byte_identical_repeats" in checks
    assert ("tomo_exit_0" if workload == "tomo-noisy"
            else "fidelity_mean_floor") in checks
    assert set(checks.values()) == {"PASS"} and result["correct"] is True


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "live-noisy", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        {"name": "cli.tomo", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "imaging.render", "start": 1.0, "end": 5.0, "parent": 0},
        {"name": tracing.FIELD_EVAL, "start": 2.0, "end": 4.0, "parent": 1},
        {"name": "estimation.extract_zip", "start": 6.0, "end": 7.0,
         "parent": 0},
    ]
    assert tracing.self_times(tracer.spans) == [5.0, 2.0, 2.0, 1.0]
