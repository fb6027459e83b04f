"""Batch driver: experiment configs in, CSV artifacts and manifests out.

The config surface is one JSON document with a versioned schema; unknown
keys are rejected so a typo cannot silently change an experiment.  Every
randomized routine reads the declared seed, so identical (config, seed)
pairs produce byte-identical CSVs for any worker count.  Exit codes:
0 all declared assertions pass, 1 an assertion fails, 2 schema error,
3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FractdimError, PreconditionError, SchemaError
from .ifs import (
    SimilarityIFS,
    TranslationFamily,
    sample_points,
    transversality_exponent,
)
from .measures import (
    BernoulliMeasure,
    LocallyConstantPotential,
    MarkovMeasure,
    gibbs_from_potential,
    gibbs_ratio_bounds,
    markov_approximation,
    relative_entropy,
)
from .multifractal import SpectrumProblem, T_derivative, solve_T, spectrum_curve
from .dimest import (
    RadiusSchedule,
    _RUN_PAIRS,
    _check_lattice_reach,
    _dyadic_radii,
    box_counting,
    coarse_spectrum,
    pair_estimates,
)
from .projections import Subspace, ede_check, holder_inverse_check, marstrand_experiment
from .runtime import check_budget, enumeration_budget, substream

SCHEMA_VERSION = 1

# substream key for config-driven word sampling; module streams stay below 100
_STREAM_CLI_WORDS = 901


# ---------------------------------------------------------------------------
# CSV dialect: comma, '.' decimal, 17 significant digits, LF, header mandatory


def format_value(v):
    """One CSV cell: doubles at 17 significant digits, ints exact."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def _write_artifact(path, text):
    """Write text to path as a new file, removing any old one first.

    Truncating an existing non-empty file makes some file systems (ext4)
    flush it, tens of milliseconds per file on a rerun into the same
    directory; a fresh file does not pay that.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row width does not match the header")
        lines.append(",".join(format_value(v) for v in row))
    _write_artifact(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Schema validation, driven by the KINDS table below.  Shapes, types and
# key sets are checked here (exit 2); numeric ranges are the library's
# preconditions (exit 3).


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}: unknown key '{key}'")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}: missing required key '{key}'")


def _number(obj, path, positive=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    if positive and not obj > 0:
        raise SchemaError(f"{path}: expected a positive number")
    try:
        return float(obj)
    except OverflowError:
        raise SchemaError(f"{path}: number out of float range")


def _integer(obj, path, minimum=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{path}: expected an integer")
    if minimum is not None and obj < minimum:
        raise SchemaError(f"{path}: expected an integer >= {minimum}")
    return int(obj)


def _has_null(obj):
    return obj is None or isinstance(obj, list) and any(map(_has_null, obj))


def _array(obj, path, ndim=None):
    if _has_null(obj):  # which numpy would read as NaN
        raise SchemaError(f"{path}: expected a numeric array, got null")
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"{path}: expected a numeric array")
    except OverflowError:
        raise SchemaError(f"{path}: number out of float range")
    if ndim is not None and arr.ndim != ndim:
        raise SchemaError(f"{path}: expected a {ndim}-d array")
    if arr.size == 0:
        raise SchemaError(f"{path}: array must be nonempty")
    return arr


def _integers(obj, path):
    """A nonempty list of JSON integers; floats and bools are rejected."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{path}: expected a nonempty list of integers")
    for i, v in enumerate(obj):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"{path}: entry {i} is not an integer")
    return obj


def _increasing(obj, path):
    ints = _integers(obj, path)
    if any(b <= a for a, b in zip(ints, ints[1:])):
        raise SchemaError(f"{path}: expected strictly increasing integers")


def _words(obj, path):
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{path}: expected a nonempty list of words")
    for i, w in enumerate(obj):
        _integers(w, f"{path}[{i}]")


_VECTOR = partial(_array, ndim=1)
_COUNT = partial(_integer, minimum=1)
_POSITIVE = partial(_number, positive=True)


class Field(NamedTuple):
    """One param key: a checker `check(value, path)`, or a nested Block."""

    check: object
    required: bool


def _req(check):
    return Field(check, True)


def _opt(check):
    return Field(check, False)


class Block(NamedTuple):
    """A params object: its fields and the quantities its presence adds.

    A quantity name containing `{i}` stands for one name per entry of the
    array field named by `index`.
    """

    fields: dict
    quantities: tuple = ()
    index: str = None


class Kind(NamedTuple):
    """Everything one experiment kind accepts and produces.

    `ifs` (a bool) and `measure` (True, False, or the param keys whose
    presence needs one) decide both when a block is required and when it
    is allowed; `params.quantities` are the quantities every run produces.
    """

    run: object
    ifs: bool
    measure: object
    params: Block


def _check_fields(obj, fields, path):
    _check_keys(obj, path, [k for k, f in fields.items() if f.required], fields)
    for key, field in fields.items():
        if key in obj:
            if isinstance(field.check, Block):
                _check_fields(obj[key], field.check.fields, f"{path}.{key}")
            else:
                field.check(obj[key], f"{path}.{key}")


def _block_quantities(block, obj):
    count = len(obj[block.index]) if block.index else 1
    names = {
        q.format(i=i) for q in block.quantities
        for i in range(count if "{i}" in q else 1)
    }
    for key, field in block.fields.items():
        if isinstance(field.check, Block) and key in obj:
            names |= _block_quantities(field.check, obj[key])
    return names


def quantity_names(kind, params):
    """Exact quantity namespace of a validated config, without running it."""
    names = _block_quantities(KINDS[kind].params, params)
    if kind == "gibbs" and params["depth"] == 1:
        names.add("bernoulli_residual")
    return names


_IFS_FIELDS = {
    "ratios": _req(_array), "translations": _req(_array),
    "rotations": _opt(_array), "orthogonal": _opt(_array),
}


# measure type -> (checkers of its keys beside 'type', builder)
_MEASURES = {
    "bernoulli": ({"weights": _array}, lambda s: BernoulliMeasure(s["weights"])),
    "markov": ({"order": _integer, "kernel": _array},
               lambda s: MarkovMeasure.from_kernel(s["kernel"], s["order"])),
}


def _validate_measure_spec(spec):
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError("config.measure: expected an object with a 'type' key")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _MEASURES:
        raise SchemaError(f"config.measure.type: unknown measure type '{kind}'")
    checks, _ = _MEASURES[kind]
    _check_keys(spec, "config.measure", ("type", *checks))
    for key, check in checks.items():
        check(spec[key], f"config.measure.{key}")


def _validate_assertion(item, path, known):
    _check_keys(item, path, ("quantity",), ("name", "value", "tol", "min", "max"))
    quantity = item["quantity"]
    if not isinstance(quantity, str) or quantity not in known:
        raise SchemaError(
            f"{path}.quantity: '{quantity}' is not produced by this experiment"
        )
    pinned = "value" in item or "tol" in item
    bounded = "min" in item or "max" in item
    if pinned == bounded:
        raise SchemaError(f"{path}: give value+tol or min/max bounds, not both")
    if pinned and ("value" not in item or "tol" not in item):
        raise SchemaError(f"{path}: value and tol must come together")
    for key in ("value", "tol", "min", "max"):
        if key in item and not math.isfinite(_number(item[key], f"{path}.{key}")):
            raise SchemaError(f"{path}.{key}: expected a finite number")


def validate_config(cfg):
    _check_keys(
        cfg, "config",
        ("schema", "kind", "seed", "params"),
        ("ifs", "measure", "assert"),
    )
    if type(cfg["schema"]) is not int or cfg["schema"] != SCHEMA_VERSION:
        raise SchemaError(
            f"config.schema: version {cfg['schema']!r} unsupported "
            f"(this build reads {SCHEMA_VERSION})"
        )
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise SchemaError(f"config.kind: unknown experiment kind '{kind}'")
    spec = KINDS[kind]
    _integer(cfg["seed"], "config.seed")
    if spec.ifs:
        if "ifs" not in cfg:
            raise SchemaError(f"config: kind '{kind}' requires an ifs block")
        _check_fields(cfg["ifs"], _IFS_FIELDS, "config.ifs")
        if "rotations" in cfg["ifs"] and "orthogonal" in cfg["ifs"]:
            raise SchemaError("config.ifs: give rotations or orthogonal, not both")
    params = cfg["params"]
    _check_fields(params, spec.params.fields, "config.params")
    if kind == "ede" and ("words" in params) == ("samples" in params):
        raise SchemaError("config.params: give words or samples, not both")
    if "ifs" in cfg and not spec.ifs:
        raise SchemaError(f"config.ifs: kind '{kind}' reads none")
    needs_measure = spec.measure is True or any(
        key in params for key in spec.measure or ()
    )
    if needs_measure and "measure" not in cfg:
        raise SchemaError(f"config: kind '{kind}' requires a measure block")
    if "measure" in cfg:
        if not needs_measure:
            without = f" without {' or '.join(spec.measure)}" if spec.measure else ""
            raise SchemaError(f"config.measure: kind '{kind}' reads none{without}")
        _validate_measure_spec(cfg["measure"])
        if kind == "spectrum" and cfg["measure"]["type"] != "bernoulli":
            raise SchemaError(
                "config.measure: the structure function needs product weights"
            )
    known = quantity_names(kind, params)
    checks = cfg.get("assert", [])
    if not isinstance(checks, list):
        raise SchemaError("config.assert: expected a list")
    for i, item in enumerate(checks):
        _validate_assertion(item, f"config.assert[{i}]", known)
    return cfg


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"config is not valid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        )
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# Builders: config blocks to library objects.  Range errors surface as the
# library's PreconditionError, giving exit code 3 with the invariant named.


def build_ifs(spec):
    orthogonal = None
    if "rotations" in spec:
        angles = np.array(spec["rotations"], dtype=float).ravel()
        if not np.all(np.isfinite(angles)):
            raise PreconditionError("rotation angles must be finite")
        trans = np.array(spec["translations"], dtype=float)
        if trans.ndim != 2 or trans.shape[1] != 2:
            raise PreconditionError("rotation angles only make sense in the plane")
        orthogonal = np.array(
            [
                [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
                for a in angles
            ]
        )
    elif "orthogonal" in spec:
        orthogonal = np.array(spec["orthogonal"], dtype=float)
    return SimilarityIFS(
        ratios=spec["ratios"],
        translations=spec["translations"],
        orthogonal=orthogonal,
    )


def build_measure(spec):
    return _MEASURES[spec["type"]][1](spec)


# ---------------------------------------------------------------------------
# Runners.  Each takes (params, seed, workers, ifs, measure), the blocks
# built by `run`, and returns (artifacts, quantities): artifacts are
# (filename, header, rows) triples, quantities a flat name -> float map.


def _run_spectrum(params, seed, workers, ifs, measure):
    problem = SpectrumProblem(measure.p, ifs.ratios)
    qs = np.array(params["qs"], dtype=float) if "qs" in params else None
    curve = spectrum_curve(problem, qs)
    rows = list(zip(curve.q, curve.T, curve.alpha, curve.f, curve.endpoint.astype(int)))
    artifacts = [("structure.csv", ["q", "T", "alpha", "f", "endpoint"], rows)]
    quantities = {
        "T_at_1": solve_T(problem, 1.0),
        "T_at_0": solve_T(problem, 0.0),
        "similarity_dim": problem.similarity_dim,
        "alpha_min": curve.alpha_min,
        "alpha_max": curve.alpha_max,
        "alpha_peak": curve.alpha_peak,
        "alpha_at_0": -T_derivative(problem, 0.0),
        "alpha_at_1": -T_derivative(problem, 1.0),
    }
    if "coarse" in params:
        block = params["coarse"]
        scale = float(block["scale"])
        delta = float(block.get("delta", 0.05))
        # refused before sampling: every point lies in the enclosure ball
        _check_lattice_reach(scale, ifs.center, ifs.radius)
        cloud = sample_points(
            ifs, measure, int(block["count"]), tol=scale / 20.0,
            seed=seed, workers=workers,
        )
        spec = coarse_spectrum(cloud, scale, delta=delta)
        artifacts.append(
            ("coarse.csv", ["alpha", "f"], list(zip(spec.alpha, spec.f)))
        )
        alpha1 = quantities["alpha_at_1"]
        at1 = int(np.argmin(np.abs(spec.alpha - alpha1)))
        quantities.update(
            coarse_peak_alpha=spec.peak_alpha,
            coarse_peak_f=spec.peak_f,
            coarse_f_at_alpha1=float(spec.f[at1]),
            coarse_boxes=float(spec.occupied),
        )
    return artifacts, quantities


def _fit_schedule(cloud, block):
    spread = float(np.max(cloud.points.max(axis=0) - cloud.points.min(axis=0)))
    r0 = float(block.get("r0", spread / 4.0))
    levels = int(block["levels"])
    return RadiusSchedule(
        r0=r0, levels=levels, fit_lo=int(block.get("fit_lo", 1)), fit_hi=levels
    )


def _fitted_rows(est, schedule, profile):
    """(radius, profile, fitted) rows; fitted is 1 inside the fit window."""
    fitted = np.zeros(est.radii.size, dtype=int)
    fitted[schedule.fit_slice] = 1
    return list(zip(est.radii, profile, fitted))


def _run_dimension(params, seed, workers, ifs, measure):
    cloud = sample_points(
        ifs, measure, int(params["count"]),
        tol=float(params.get("sample_tol", 1e-7)), seed=seed, workers=workers,
    )
    artifacts = []
    quantities = {"count": float(cloud.size), "truncation": cloud.truncation_error}
    corr, energy = params.get("correlation", {}), params.get("energy", {})
    corr_pairs, energy_pairs = (int(b.get("max_pairs", _RUN_PAIRS)) for b in (corr, energy))
    exponents = np.array(energy.get("exponents", []), dtype=float).tolist()
    # one pair draw serves both blocks when they share a budget; energy
    # errors are raised as the estimates are read, after the box block's
    shared = corr and energy and corr_pairs == energy_pairs
    if corr:
        schedule = _fit_schedule(cloud, corr)
        est, energies = pair_estimates(
            cloud, schedule, exponents if shared else (), seed, corr_pairs, workers
        )
        artifacts.append(("correlation.csv", ["radius", "correlation", "fitted"],
                          _fitted_rows(est, schedule, est.profile)))
        quantities.update(correlation=est.value, correlation_stderr=est.stderr)
    if "box" in params:
        schedule = _fit_schedule(cloud, params["box"])
        est = box_counting(cloud, schedule)
        artifacts.append(("box.csv", ["radius", "boxes", "fitted"],
                          _fitted_rows(est, schedule, est.profile.astype(int))))
        quantities.update(box=est.value, box_stderr=est.stderr)
    if energy:
        if not shared:
            _, energies = pair_estimates(cloud, None, exponents, seed, energy_pairs, workers)
        rows = []
        for i, est in enumerate(energies):
            rows.append((est.s, est.value, est.half_value, int(est.diverged)))
            quantities[f"energy{i}_value"] = est.value
            quantities[f"energy{i}_diverged"] = float(est.diverged)
        artifacts.append(("energy.csv", ["s", "energy", "half_energy", "diverged"], rows))
    return artifacts, quantities


def _run_project(params, seed, workers, ifs, measure):
    directions = None
    if "basis" in params:
        directions = [Subspace(b) for b in params["basis"]]
    report = marstrand_experiment(
        ifs, measure,
        d=int(params["subspace_dim"]),
        num_directions=int(params["directions"]),
        count=int(params["count"]),
        seed=seed,
        tol=float(params.get("tolerance", 0.1)),
        directions=directions,
        max_pairs=int(params.get("max_pairs", _RUN_PAIRS)),
        workers=workers,
    )
    within = np.abs(report.estimates - report.predicted) <= report.tolerance
    rows = [
        (j, report.estimates[j], report.stderrs[j], int(within[j]), int(report.below[j]))
        for j in range(report.estimates.size)
    ]
    artifacts = [
        ("directions.csv", ["index", "estimate", "stderr", "within", "below"], rows)
    ]
    q05, q25, q50, q75, q95 = report.quantiles
    quantities = {
        "predicted": report.predicted,
        "fraction_within": report.fraction_within,
        "below_count": float(report.below.sum()),
        "directions": float(report.estimates.size),
        "q05": q05, "q25": q25, "q50": q50, "q75": q75, "q95": q95,
    }
    return artifacts, quantities


def _run_ede(params, seed, workers, ifs, measure):
    if "words" in params:
        words = [tuple(w) for w in params["words"]]
    else:
        length = params.get("word_length", max(40, params["depth_max"] * 2))
        check_budget(params["samples"] * length, "EDE word sample")
        rng = substream(seed, _STREAM_CLI_WORDS)
        words = [
            tuple(row) for row in measure.sample_batch(params["samples"], length, rng)
        ]
    depths = range(params["depth_min"], params["depth_max"] + 1)
    epsilon = float(params["epsilon"])
    tol = float(params.get("tolerance", 1e-12))
    reports = [ede_check(ifs, w, depths, epsilon, tol) for w in words]
    rows = [
        ("".join(str(s) for s in w[: max(depths)]),
         rep.depths[k], rep.dist_lower[k], rep.diam[k], int(rep.passed[k]))
        for w, rep in zip(words, reports) for k in range(rep.depths.size)
    ]
    artifacts = [
        ("verdicts.csv", ["word", "depth", "dist_lower", "diam", "passed"], rows)
    ]
    passed = [rep.all_passed for rep in reports]
    # np.max, unlike max, returns NaN wherever a NaN worst exponent sits
    quantities = {
        "words": float(len(words)),
        "fraction_passed": float(np.mean(passed)),
        "all_passed": float(all(passed)),
        "any_overlap": float(any(rep.overlap_suspected for rep in reports)),
        "max_worst_exponent": float(np.max([rep.worst_exponent for rep in reports])),
        "min_constant": float(np.min([rep.constant for rep in reports])),
    }
    if "holder" in params:
        block = params["holder"]
        rep = holder_inverse_check(
            ifs, measure,
            alphas=np.array(block["alphas"], dtype=float),
            pair_samples=block["pair_samples"],
            seed=seed,
        )
        hrows = [
            (rep.alphas[a], rep.depths[d], rep.worst[a, d], rep.skipped[d], rep.pairs[d])
            for a in range(rep.alphas.size) for d in range(rep.depths.size)
        ]
        artifacts.append(
            ("holder.csv", ["alpha", "depth", "worst", "skipped", "pairs"], hrows)
        )
        stable = rep.stabilized()
        quantities["holder_stabilized"] = float(np.all(stable))
        for i in range(rep.alphas.size):
            quantities[f"holder{i}_overall"] = float(rep.overall[i])
    return artifacts, quantities


def _run_transversality(params, seed, workers, ifs, measure):
    family = TranslationFamily(ifs, low=params["low"], high=params["high"])
    radii = _dyadic_radii(float(params["r0"]), int(params["levels"]))
    res = transversality_exponent(
        family,
        params["word_a"],
        params["word_b"],
        radii,
        param_samples=int(params["samples"]),
        seed=seed,
        workers=workers,
    )
    rows = list(zip(res.radii, res.measures, res.hits, res.used.astype(int)))
    artifacts = [("decay.csv", ["radius", "measure", "hits", "used"], rows)]
    quantities = {
        "exponent": res.exponent,
        "k_hat": res.k_hat,
        "degenerate": float(res.degenerate),
        "constraint_satisfied": float(res.constraint_satisfied),
        "samples": float(res.samples),
        "used_bins": float(res.used.sum()),
    }
    return artifacts, quantities


def _run_approx(params, seed, workers, ifs, measure):
    base_entropy = measure.entropy()
    rows = []
    for k in params["orders"]:
        approx = markov_approximation(measure, k)
        rel = relative_entropy(measure, approx)
        rows.append((k, approx.entropy(), rel, abs(rel - (approx.entropy() - base_entropy))))
    _, _, rels, residuals = zip(*rows)
    artifacts = [
        (
            "approx.csv",
            ["order", "entropy_rate", "relative_entropy", "identity_residual"],
            rows,
        )
    ]
    quantities = {
        "entropy": base_entropy,
        "max_identity_residual": float(np.max(residuals)),
        "monotone": float(np.all(np.diff(rels) <= 1e-12)),
        "relative_entropy_first": float(rels[0]),
        "relative_entropy_last": float(rels[-1]),
    }
    return artifacts, quantities


def _run_gibbs(params, seed, workers, ifs, measure):
    pot = LocallyConstantPotential(
        depth=int(params["depth"]),
        m=int(params["alphabet"]),
        table=np.array(params["table"], dtype=float),
    )
    gm = gibbs_from_potential(pot)
    check_depth = int(params.get("check_depth", 10))
    lo, hi, cylinders = gibbs_ratio_bounds(gm, check_depth)
    max_ratio, min_ratio = float(hi.max()), float(lo.min())
    holds = max_ratio <= gm.constant * (1 + 1e-9) and min_ratio >= (
        1 / gm.constant
    ) * (1 - 1e-9)
    rows = list(zip(range(1, check_depth + 1), lo, hi, cylinders))
    artifacts = [
        ("bounds.csv", ["n", "min_ratio", "max_ratio", "cylinders"], rows)
    ]
    quantities = {
        "pressure": gm.pressure,
        "constant": gm.constant,
        "max_ratio": max_ratio,
        "min_ratio": min_ratio,
        "bounds_hold": float(holds),
    }
    if pot.depth == 1:
        p = np.exp(pot.table - gm.pressure)
        quantities["bernoulli_residual"] = float(
            np.max(np.abs(gm.marginal(1) - p))
        )
    return artifacts, quantities


# ---------------------------------------------------------------------------
# The experiment kinds: the one source of each kind's schema, quantity
# names and runner.

_FIT = {"levels": _req(_integer), "r0": _opt(_number), "fit_lo": _opt(_integer)}

KINDS = {
    "spectrum": Kind(_run_spectrum, ifs=True, measure=True, params=Block(
        {
            "qs": _opt(_array),
            "coarse": _opt(Block(
                {"count": _req(_integer), "scale": _req(_POSITIVE), "delta": _opt(_number)},
                ("coarse_peak_alpha", "coarse_peak_f", "coarse_f_at_alpha1", "coarse_boxes"),
            )),
        },
        ("T_at_1", "T_at_0", "similarity_dim", "alpha_min", "alpha_max",
         "alpha_peak", "alpha_at_0", "alpha_at_1"),
    )),
    "dimension": Kind(_run_dimension, ifs=True, measure=True, params=Block(
        {
            "count": _req(_integer),
            "sample_tol": _opt(_number),
            "correlation": _opt(Block(
                {**_FIT, "max_pairs": _opt(_COUNT)}, ("correlation", "correlation_stderr"),
            )),
            "box": _opt(Block(_FIT, ("box", "box_stderr"))),
            "energy": _opt(Block(
                {"exponents": _req(_VECTOR), "max_pairs": _opt(_COUNT)},
                ("energy{i}_value", "energy{i}_diverged"), index="exponents",
            )),
        },
        ("count", "truncation"),
    )),
    "project": Kind(_run_project, ifs=True, measure=True, params=Block(
        {
            "subspace_dim": _req(_integer), "directions": _req(_integer),
            "count": _req(_integer),
            "tolerance": _opt(_POSITIVE),
            "max_pairs": _opt(_COUNT), "basis": _opt(partial(_array, ndim=3)),
        },
        ("predicted", "fraction_within", "below_count", "directions",
         "q05", "q25", "q50", "q75", "q95"),
    )),
    "ede": Kind(_run_ede, ifs=True, measure=("samples", "holder"), params=Block(
        {
            "depth_min": _req(_integer), "depth_max": _req(_integer),
            "epsilon": _req(_number),
            "words": _opt(_words), "samples": _opt(_COUNT),
            "word_length": _opt(_COUNT), "tolerance": _opt(_number),
            "holder": _opt(Block(
                {"alphas": _req(_VECTOR), "pair_samples": _req(_integer)},
                ("holder_stabilized", "holder{i}_overall"), index="alphas",
            )),
        },
        ("words", "fraction_passed", "all_passed", "any_overlap",
         "max_worst_exponent", "min_constant"),
    )),
    "transversality": Kind(_run_transversality, ifs=True, measure=False, params=Block(
        {
            "low": _req(_array), "high": _req(_array),
            "word_a": _req(_integers), "word_b": _req(_integers),
            "r0": _req(_number), "levels": _req(_integer), "samples": _req(_integer),
        },
        ("exponent", "k_hat", "degenerate", "constraint_satisfied",
         "samples", "used_bins"),
    )),
    "approx": Kind(_run_approx, ifs=False, measure=True, params=Block(
        {"orders": _req(_increasing)},
        ("entropy", "max_identity_residual", "monotone",
         "relative_entropy_first", "relative_entropy_last"),
    )),
    "gibbs": Kind(_run_gibbs, ifs=False, measure=False, params=Block(
        {
            "depth": _req(_integer), "alphabet": _req(_integer),
            "table": _req(_array), "check_depth": _opt(_COUNT),
        },
        ("pressure", "constant", "max_ratio", "min_ratio", "bounds_hold"),
    )),
}


# ---------------------------------------------------------------------------
# Assertions, manifest, run/verify drivers


def evaluate_assertions(checks, quantities):
    results = []
    for item in checks:
        got = quantities[item["quantity"]]
        if "value" in item:
            ok = abs(got - item["value"]) <= item["tol"]
            expected = {"value": item["value"], "tol": item["tol"]}
        else:
            ok = True
            expected = {}
            if "min" in item:
                ok = ok and got >= item["min"]
                expected["min"] = item["min"]
            if "max" in item:
                ok = ok and got <= item["max"]
                expected["max"] = item["max"]
        results.append(
            {
                "name": item.get("name", item["quantity"]),
                "quantity": item["quantity"],
                "got": got,
                **expected,
                "passed": bool(ok),
            }
        )
    return results


def _versions():
    from . import __version__

    return {
        "fractdim": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _null_nonfinite(value, path, found):
    """value with every non-finite float as None (JSON null); their paths go to found."""
    if isinstance(value, dict):
        return {
            k: _null_nonfinite(v, f"{path}.{k}" if path else k, found)
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [_null_nonfinite(v, f"{path}[{i}]", found) for i, v in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        found.append(path)
        return None
    return value


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def run(config_path, out_dir, workers=1, seed_override=None):
    """Execute one experiment config; returns the process exit code."""
    start = time.perf_counter()
    cfg = load_config(config_path)
    overridden = seed_override is not None
    if overridden:
        cfg["seed"] = int(seed_override)
    spec = KINDS[cfg["kind"]]
    ifs = build_ifs(cfg["ifs"]) if spec.ifs else None
    measure = build_measure(cfg["measure"]) if "measure" in cfg else None
    artifacts, quantities = spec.run(cfg["params"], cfg["seed"], workers, ifs, measure)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in artifacts:
        write_csv(out / name, header, rows)
    results = evaluate_assertions(cfg.get("assert", []), quantities)
    config_nonfinite = []
    manifest = {
        "config": _null_nonfinite(cfg, "config", config_nonfinite),
        "seed": cfg["seed"],
        "seed_overridden": overridden,
        "workers": int(workers),
        "budget": enumeration_budget(),
        "versions": _versions(),
        "artifacts": [name for name, _, _ in artifacts],
        "wall_seconds": time.perf_counter() - start,
    }
    # strict JSON has no Infinity/NaN: such values are written as null and
    # their paths (quantity names in the summary) listed under "nonfinite"
    if config_nonfinite:
        manifest["nonfinite"] = config_nonfinite
    _write_artifact(out / "manifest.json", _json_text(manifest))
    nonfinite = []
    written = _null_nonfinite(quantities, "", nonfinite)
    summary = {
        "passed": all(r["passed"] for r in results),
        "assertions": [{**r, "got": written[r["quantity"]]} for r in results],
        "quantities": written,
    }
    if nonfinite:
        summary["nonfinite"] = nonfinite
    _write_artifact(out / "summary.json", _json_text(summary))
    for r in results:
        verdict = "pass" if r["passed"] else "FAIL"
        print(f"{verdict}  {r['name']}: got {format_value(r['got'])}")
    return 0 if summary["passed"] else 1


def verify(suite, workers=1):
    """Run a named acceptance suite and print the comparison table."""
    from .acceptance import SUITES, run_suite

    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        print(f"unknown suite '{suite}' (known: {known})", file=sys.stderr)
        return 2
    results = run_suite(suite, workers=workers)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fractdim",
        description="batch experiments for self-similar measure geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--out", required=True, help="output directory for artifacts")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument(
        "--seed-override", type=int, default=None,
        help="replace the config seed (recorded in the manifest)",
    )
    p_verify = sub.add_parser("verify", help="run a named acceptance suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(
                args.config, args.out,
                workers=args.workers, seed_override=args.seed_override,
            )
        return verify(args.suite, workers=args.workers)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except FractdimError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
