"""Self-check of the benchmark at tiny scale.

    python3 -m pytest -q benchmark/tests

Every declared metric is emitted with its unit, two runs of one seed give
identical artifact digests and work counters, and the traced spans cover
the traced job's wall time.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=5, cwd=ROOT):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace, repeat=0):
        key = (workload, trace, repeat)
        if key not in cache:
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr[-3000:]
            details, result = (json.loads(x) for x in proc.stdout.strip().splitlines()[-2:])
            cache[key] = details, result
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(runs, workload, trace):
    _, result = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_digests_and_counts_exactly(runs, workload):
    first, _ = runs(workload, 1)
    second, _ = runs(workload, 1, repeat=1)
    assert first["artifacts"] and first["artifacts"] == second["artifacts"]
    assert first["counters"] == second["counters"]
    assert all(isinstance(v, int) for v in first["counters"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_named_spans_cover_the_traced_job(runs, workload):
    _, result = runs(workload, 1)
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
