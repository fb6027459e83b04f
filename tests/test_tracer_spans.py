"""Traced pair estimators give the untraced results and record pair spans.

`benchmark/tracing.py` wraps `dimest._pair_profile` with a function that
reads the call's arguments, so a signature change can crash a traced
benchmark run while every traced name still resolves.  The tracer is
loaded from its file, unedited, and small estimator runs go through it.
"""

import importlib.util
from pathlib import Path

import numpy as np

# the tracer patches every module of its tables, cli (which imports the
# rest) included, so each must be loaded before it is instrumented
from fractdim import cli, dimest, projections  # noqa: F401
from fractdim.dimest import PointCloud, RadiusSchedule
from fractdim.ifs import SimilarityIFS
from fractdim.measures import BernoulliMeasure

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmark" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair_jobs():
    """One correlation fit, one energy and one Marstrand run, at two workers."""
    cloud = PointCloud(np.random.default_rng(3).random((1500, 2)))
    schedule = RadiusSchedule(r0=0.5, levels=6, fit_lo=1, fit_hi=6)
    ifs = SimilarityIFS(
        ratios=[1 / 3] * 4,
        translations=[[0, 0], [2 / 3, 0], [0, 2 / 3], [2 / 3, 2 / 3]],
    )
    measure = BernoulliMeasure([0.1, 0.2, 0.3, 0.4])
    fit = dimest.correlation_dimension(cloud, schedule, 1, 20_000, workers=2)
    energy = dimest.empirical_energy(cloud, 0.5, 1, 20_000, workers=2)
    rep = projections.marstrand_experiment(
        ifs, measure, 1, 2, 20_000, 5, max_pairs=100_000, workers=2
    )
    return fit, energy, rep


def test_traced_pair_estimators_match_untraced():
    tracing = load_tracing()
    fit, energy, rep = pair_jobs()
    tracer = tracing.Tracer("pairs")
    with tracing.instrument(tracer):
        traced_fit, traced_energy, traced_rep = pair_jobs()
    assert traced_fit.value == fit.value and traced_fit.stderr == fit.stderr
    assert traced_fit.profile.tobytes() == fit.profile.tobytes()
    assert traced_energy == energy
    assert traced_rep.estimates.tobytes() == rep.estimates.tobytes()
    assert traced_rep.stderrs.tobytes() == rep.stderrs.tobytes()
    # every estimator's pair profile is a span of its own, with a pair count
    names = {s["id"]: s["name"] for s in tracer.spans}
    profiles = [s for s in tracer.spans if s["name"] == "dimest._pair_profile"]
    assert {names[s["parent"]] for s in profiles} == {
        "dimest.correlation_dimension",
        "dimest.empirical_energy",
        "projections.marstrand_experiment",
    }
    assert all("pairs" in s["attrs"] for s in profiles)
