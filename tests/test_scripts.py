"""Smoke runs of the demo scripts at small sizes, so API drift shows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = {
    "spectrum_walkthrough.py": ["--count", "20000"],
    "projection_sweep.py": ["--directions", "4", "--count", "5000"],
    "energy_detector_demo.py": ["--count", "5000"],
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *RUNS[script]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
