"""Smoke test of the benchmark itself.

Runs every workload, untraced and traced, at tiny sizes and checks the result
line's schema and that its metric names and units are the ones BENCHMARK.json
declares. It asserts nothing about timings. Run it with

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# ohs-retrain and hs-durable run only by hand (see bench/README.md), but must
# keep working.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["ohs-retrain", "hs-durable"]


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 5) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    result = result_line(run_bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert type(result["failed"]) is int and result["failed"] == 0
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_same_seed_same_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import numpy as np
        import workloads
    finally:
        del sys.path[:2]

    def inputs(seed):
        seeds = workloads.Seeds.derive(seed)
        service = workloads.set_up(workloads.WORKLOADS["ohs-retrain"], workloads.TINY, seeds)
        ids = workloads.mubench.sample_request_ids(
            service.engine.plan, service.requests, seeds.stream(0)
        )
        return service.engine.model.params.values, ids

    (first, ids), (again, ids_again), (_, other_ids) = inputs(9), inputs(9), inputs(10)
    assert np.array_equal(first, again) and ids == ids_again
    assert ids != other_ids


def test_refused_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "dpus-direct", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
