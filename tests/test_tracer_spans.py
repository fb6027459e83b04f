"""Traced pair estimators give the untraced results and record pair spans.

`benchmark/tracing.py` wraps `dimest._pair_profile` with a function that
reads the call's arguments, so a signature change can crash a traced
benchmark run while every traced name still resolves.  The tracer is
loaded from its file, unedited, and small estimator runs go through it.
A `dimension` run calls no traced estimator for its pairs, so its pair
draw must run in `run_chunks`, whose chunks the tracer records as spans.
"""

import importlib.util
import json
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


def dimension_runs(tmp_path, tag, workers=2):
    """A small `dimension` run per pair budget layout, artifacts by file name."""
    budgets = {"shared": (100_000, 100_000), "split": (100_000, 60_000)}
    out = {}
    for name, (corr_pairs, energy_pairs) in budgets.items():
        cfg = {
            "schema": 1, "kind": "dimension", "seed": 4,
            "ifs": {"ratios": [1 / 3, 1 / 3], "translations": [0.0, 2 / 3]},
            "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
            "params": {
                "count": 20_000,
                "correlation": {"r0": 0.5, "levels": 6, "max_pairs": corr_pairs},
                "box": {"r0": 0.5, "levels": 6},
                "energy": {"exponents": [0.5, 0.9], "max_pairs": energy_pairs},
            },
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        directory = tmp_path / f"{name}-{tag}"
        assert cli.run(path, directory, workers=workers) == 0
        out[name] = {p.name: p.read_bytes() for p in sorted(directory.iterdir())
                     if p.name != "manifest.json"}
    return out


def test_traced_dimension_run_draws_pairs_in_chunk_spans(tmp_path):
    # structure, not timing: the pair draw runs in `run_chunks`, so its
    # strata are `dimest.chunk` spans and not self time of `cli.run`
    tracing = load_tracing()
    plain = dimension_runs(tmp_path, "plain")
    tracer = tracing.Tracer("dimension")
    with tracing.instrument(tracer):
        traced = dimension_runs(tmp_path, "traced")
    assert traced == plain
    spans = {s["id"]: s for s in tracer.spans}
    runs = sorted((s for s in tracer.spans if s["name"] == "cli.run"),
                  key=lambda s: s["start"])
    for run, draws in zip(runs, ([5], [5, 3])):
        # one draw per distinct budget: 20,000 points and 100,000 or
        # 60,000 pairs make 5 or 3 strata; the cloud's chunks are ifs.chunk
        below_run = [s for s in tracer.spans if s["parent"] == run["id"]]
        pooled = [s for s in below_run if s["name"] == "runtime.run_chunks"]
        assert [s["attrs"]["chunks"] for s in pooled] == draws
        for pool in pooled:
            kids = [s for s in tracer.spans if s["parent"] == pool["id"]]
            assert len(kids) == pool["attrs"]["chunks"]
            assert {s["name"] for s in kids} == {"dimest.chunk"}
        profiles = [s for s in below_run if s["name"] == "dimest._pair_profile"]
        assert len(profiles) == len(draws)
        assert all(spans[s["parent"]] is run for s in pooled + profiles)
