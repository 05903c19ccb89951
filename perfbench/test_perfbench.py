"""Smoke tests of the repository benchmark at tiny n.

Each workload runs through ``run.py`` as a subprocess, untraced and
traced, and the tests check the output contract: every declared metric
is emitted with its unit and a numeric value, the traced run's self
times are never negative and add up to the traced wall time, and runs
that cannot measure anything refuse with exit code 2 and no result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import SELF_METRICS  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Tiny (n, trials) per workload: seconds per run, not minutes.
TINY = {
    "dra-fast": (64, 4),
    "dhc2-batch": (64, 4),
    "dra-congest": (24, 3),
    "dra-async-jitter": (16, 3),
}


def bench(workload: str, trace: int, *, cwd: Path = ROOT, env=None,
          script: Path = HERE / "run.py"):
    n, trials = TINY[workload]
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace),
         "--nodes", str(n), "--trials", str(trials)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def check_metrics(metrics: dict, declared: dict) -> None:
    assert set(metrics) == set(declared)
    for name, entry in metrics.items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == declared[name]
        value = entry["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value), name


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics(workload):
    metrics = result_of(bench(workload, 0))["metrics"]
    check_metrics(metrics, END_TO_END)
    for name, entry in metrics.items():
        assert entry["value"] > 0, name
    assert metrics["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_layers_account_for_wall_time(workload):
    metrics = result_of(bench(workload, 1))["metrics"]
    check_metrics(metrics, PER_LAYER)
    value = {name: entry["value"] for name, entry in metrics.items()}
    parts = [value[name] for name in SELF_METRICS.values()]
    assert min(parts) >= 0.0
    assert sum(parts) == pytest.approx(value["trace.wall_ms"], rel=1e-9)
    assert value["engines.call_ms"] >= value["engines.other_ms"]
    assert value["congest.call_ms"] == pytest.approx(
        value["congest.core_ms"] + value["congest.handler_ms"]
        + value["congest.send_ms"], rel=1e-6)
    simulated = WORKLOADS[workload].engine in ("congest", "async")
    assert (value["congest.activations"] > 0) == simulated
    assert (value["engines.batch_vs_fast"] > 0) == (
        WORKLOADS[workload].reference is not None)


def test_refuses_compiled_kernels():
    env = dict(os.environ, REPRO_JIT="1")
    proc = bench("dra-fast", 0, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("dra-fast", 0, cwd=tmp_path,
                 script=tmp_path / HERE.name / "run.py")
    assert proc.returncode == 2
    assert proc.stdout == ""
