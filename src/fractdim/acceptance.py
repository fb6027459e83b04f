"""Verification suites behind `fractdim verify` and the release gate.

Three sorts of checks live here: closed-form identities that must hold to
rounding, equivalence against independent brute-force oracles computed in
place, and desk-scale statistical reproductions of predicted dimensions
with frozen seeds and pinned tolerances.  Every check returns a
CheckResult so the CLI can print one comparison row per claim and the
test suite can assert on the same objects.
"""

from __future__ import annotations

import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cli
from .dimest import RadiusSchedule, box_counting, coarse_spectrum, correlation_dimension, empirical_energy
from .ifs import (
    SimilarityIFS,
    TranslationFamily,
    sample_points,
    symbolic_dimension,
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
from .multifractal import SpectrumProblem, T_derivative, legendre, optimal_measure, solve_T, solve_T_many
from .projections import Subspace, ede_check, holder_inverse_check, marstrand_experiment
from .runtime import substream


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    got: float
    tolerance: str
    passed: bool

    def row(self):
        verdict = "pass" if self.passed else "FAIL"
        return f"{self.name:<58} {self.expected:>22} {self.got:>22.16g} {self.tolerance:>8}  {verdict}"


def _close(name, got, expected, tol):
    got = float(got)
    ok = math.isfinite(got) and abs(got - expected) <= tol
    return CheckResult(name, f"{expected:.12g}", got, f"{tol:.0e}", ok)


def _within(name, got, lo, hi):
    got = float(got)
    ok = math.isfinite(got) and lo <= got <= hi
    return CheckResult(name, f"[{lo:g}, {hi:g}]", got, "-", ok)


def _at_least(name, got, bound):
    got = float(got)
    ok = math.isfinite(got) and got >= bound
    return CheckResult(name, f">= {bound:g}", got, "-", ok)


def _at_most(name, got, bound):
    got = float(got)
    ok = math.isfinite(got) and got <= bound
    return CheckResult(name, f"<= {bound:g}", got, "-", ok)


def _flag(name, value, expect=True):
    value = bool(value)
    return CheckResult(name, "true" if expect else "false", float(value), "-", value == expect)


# ---------------------------------------------------------------------------
# Reference systems


_INTERVAL = SimilarityIFS(ratios=[0.5, 0.5], translations=[0.0, 0.5])
_SQUARE = SimilarityIFS(
    ratios=[0.5] * 4, translations=[[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]
)
_CANTOR = SimilarityIFS(ratios=[1 / 3, 1 / 3], translations=[0.0, 2 / 3])
_PRODUCT_CANTOR = SimilarityIFS(
    ratios=[1 / 3] * 4, translations=[[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]]
)
# two planar maps with an off-axis translation: projections stay generic
_DUST = SimilarityIFS(ratios=[1 / 3, 1 / 3], translations=[[0.0, 0.0], [0.6, 0.45]])


_UNIFORM2 = BernoulliMeasure([0.5, 0.5])
_UNIFORM4 = BernoulliMeasure([0.25] * 4)

CANTOR_DIM = math.log(2.0) / math.log(3.0)


def _random_problem(rng, max_symbols=4, ratio_hi=0.6):
    m = int(rng.integers(2, max_symbols + 1))
    p = rng.dirichlet(np.ones(m))
    lam = rng.uniform(0.15, ratio_hi, size=m)
    return SpectrumProblem(p, lam)


# ---------------------------------------------------------------------------
# 1. closed-form identity suite


def closed_form_identities(workers=1):
    rng = substream(2026, 1)
    worst_t1 = 0.0
    worst_t0 = 0.0
    for _ in range(20):
        prob = _random_problem(rng)
        worst_t1 = max(worst_t1, abs(solve_T(prob, 1.0)))
        worst_t0 = max(worst_t0, abs(solve_T(prob, 0.0) - prob.similarity_dim))
    worst_eq = 0.0
    for _ in range(5):
        m = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(m))
        lam = float(rng.uniform(0.2, 0.6))
        prob = SpectrumProblem(p, np.full(m, lam))
        for q in range(-5, 6):
            exact = math.log(float(np.sum(p ** float(q)))) / math.log(1.0 / lam)
            worst_eq = max(worst_eq, abs(solve_T(prob, float(q)) - exact))
    cantor = SpectrumProblem([0.5, 0.5], [1 / 3, 1 / 3])
    return [
        _close("T(1) = 0 over 20 random problems (worst residual)", worst_t1, 0.0, 1e-12),
        _close("T(0) = similarity dim over 20 problems (worst)", worst_t0, 0.0, 1e-12),
        _close("equal-ratio T(q) closed form, q in -5..5 (worst)", worst_eq, 0.0, 1e-10),
        _close("Cantor similarity dimension log2/log3", cantor.similarity_dim, CANTOR_DIM, 1e-12),
    ]


# ---------------------------------------------------------------------------
# 2. Legendre transform against a brute-force grid oracle


def _brute_legendre(problem, alphas, qs_coarse, ts_coarse):
    """Grid minimization of alpha*q + T(q) with two local refinements."""
    vals = alphas[:, None] * qs_coarse[None, :] + ts_coarse[None, :]
    best = vals.min(axis=1)
    centers = qs_coarse[np.argmin(vals, axis=1)]
    rows = np.arange(alphas.size)
    width = 2e-3
    for _ in range(2):
        offsets = np.linspace(-width, width, 161)
        grids = np.clip(centers[:, None] + offsets[None, :], -60.0, 60.0)
        ts = solve_T_many(problem, grids.ravel()).reshape(grids.shape)
        stage = alphas[:, None] * grids + ts
        k = np.argmin(stage, axis=1)
        best = np.minimum(best, stage[rows, k])
        centers = grids[rows, k]
        width /= 60.0
    return best


def legendre_oracle(workers=1):
    rng = substream(2026, 2)
    problems = [_random_problem(rng) for _ in range(5)]
    qs_coarse = np.arange(-60.0, 60.0 + 5e-4, 1e-3)
    worst = 0.0
    worst_peak = 0.0
    for prob in problems:
        ts_coarse = solve_T_many(prob, qs_coarse)
        a_lo = -T_derivative(prob, 8.0)
        a_hi = -T_derivative(prob, -8.0)
        alphas = np.linspace(a_lo, a_hi, 40)
        oracle = _brute_legendre(prob, alphas, qs_coarse, ts_coarse)
        lib = np.array([legendre(prob, a) for a in alphas])
        worst = max(worst, float(np.max(np.abs(lib - oracle))))
        alpha0 = -T_derivative(prob, 0.0)
        worst_peak = max(worst_peak, abs(legendre(prob, alpha0) - prob.similarity_dim))
    return [
        _close("legendre vs grid minimization, 200 alphas (worst)", worst, 0.0, 1e-6),
        _close("T*(alpha(0)) = similarity dim, 5 problems (worst)", worst_peak, 0.0, 1e-9),
    ]


# ---------------------------------------------------------------------------
# 3. optimal measures attain the spectrum


def optimal_measures(workers=1):
    rng = substream(2026, 3)
    worst = 0.0
    for _ in range(3):
        prob = _random_problem(rng, max_symbols=3, ratio_hi=0.3)
        ifs = SimilarityIFS(
            ratios=prob.ratios, translations=np.arange(prob.m, dtype=float)
        )
        a_lo = -T_derivative(prob, 5.0)
        a_hi = -T_derivative(prob, -5.0)
        for alpha in np.linspace(a_lo, a_hi, 30):
            nu = optimal_measure(prob, alpha)
            got = symbolic_dimension(nu, ifs).value
            worst = max(worst, abs(got - legendre(prob, alpha)))
    return [
        _close("dim of optimal measure equals T*(alpha) (worst)", worst, 0.0, 1e-9),
    ]


# ---------------------------------------------------------------------------
# 4. Markov approximation suite


def markov_approximation_suite(workers=1):
    rng = substream(2026, 4)
    worst_identity = 0.0
    worst_increase = -math.inf
    for _ in range(10):
        kernel = rng.dirichlet(np.ones(2), size=8)
        mu = MarkovMeasure.from_kernel(kernel, order=3)
        rels = []
        for k in range(1, 7):
            nuk = markov_approximation(mu, k)
            rel = relative_entropy(mu, nuk)
            worst_identity = max(
                worst_identity, abs(rel - (nuk.entropy() - mu.entropy()))
            )
            rels.append(rel)
        worst_increase = max(worst_increase, float(np.max(np.diff(rels))))
    worst_kl = 0.0
    for _ in range(10):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        got = relative_entropy(BernoulliMeasure(p), BernoulliMeasure(q))
        worst_kl = max(worst_kl, abs(got - float(np.sum(p * np.log(p / q)))))
    return [
        _close("h(mu||mu_k) = h(mu_k) - h(mu), 10 models (worst)", worst_identity, 0.0, 1e-10),
        _at_most("relative entropy non-increasing in k (worst step)", worst_increase, 1e-10),
        _close("Bernoulli relative entropy equals KL form (worst)", worst_kl, 0.0, 1e-12),
    ]


# ---------------------------------------------------------------------------
# 5. Gibbs suite


def gibbs_suite(workers=1):
    rng = substream(2026, 5)
    p = rng.dirichlet(np.ones(3))
    gm = gibbs_from_potential(LocallyConstantPotential(1, 3, np.log(p)))
    bern = BernoulliMeasure(p)
    mass_gap = float(np.max(np.abs(gm.marginal(4) - bern.marginal(4))))
    worst_lip = -math.inf
    for _ in range(100):
        t1 = rng.normal(size=4)
        t2 = t1 + rng.normal(scale=0.5, size=4)
        p1 = gibbs_from_potential(LocallyConstantPotential(2, 2, t1)).pressure
        p2 = gibbs_from_potential(LocallyConstantPotential(2, 2, t2)).pressure
        worst_lip = max(worst_lip, abs(p1 - p2) - float(np.max(np.abs(t1 - t2))))
    pot = LocallyConstantPotential(3, 2, rng.normal(scale=0.8, size=8))
    gibbs = gibbs_from_potential(pot)
    lo, hi, _ = gibbs_ratio_bounds(gibbs, 12)
    hi_ratio, lo_ratio = float(hi.max()), float(lo.min())
    return [
        _close("potential log p has zero pressure", gm.pressure, 0.0, 1e-10),
        _close("potential log p gives Bernoulli(p) (level-4 worst)", mass_gap, 0.0, 1e-10),
        _at_most("pressure 1-Lipschitz in the potential (worst excess)", worst_lip, 1e-12),
        _at_most("Gibbs upper ratio / C on cylinders <= 12", hi_ratio / gibbs.constant, 1.0 + 1e-9),
        _at_least("Gibbs lower ratio * C on cylinders <= 12", lo_ratio * gibbs.constant, 1.0 - 1e-9),
    ]


# ---------------------------------------------------------------------------
# 6. dimension estimator calibration


def _calibration_cases():
    # schedules resolve the pair budget at each ambient dimension; the Cantor
    # box window is deep because the dyadic slope carries a lacunarity bias
    # that decays with window depth.  Each case carries two extra sampling
    # tolerances for the energy checks: the convergent side wants the pair
    # sampler to exhaust the cloud's distance floor (the empirical mean then
    # settles by the CLT), the divergent side wants the floor far below the
    # budget's reach so the mean keeps finding closer pairs.
    return [
        ("interval", _INTERVAL, _UNIFORM2, 1.0, 0.05,
         RadiusSchedule(0.25, 12, 1, 12), RadiusSchedule(0.25, 12, 1, 12),
         2_000_000, 1e-4, 1e-7),
        ("square", _SQUARE, _UNIFORM4, 2.0, 0.08,
         RadiusSchedule(0.25, 8, 1, 8), RadiusSchedule(0.25, 7, 1, 7),
         20_000_000, 1e-2, 1e-7),
        ("cantor", _CANTOR, _UNIFORM2, CANTOR_DIM, 0.05,
         RadiusSchedule(0.5, 12, 1, 12), RadiusSchedule(0.5, 14, 2, 14),
         2_000_000, 1e-5, 1e-12),
    ]


def dimension_calibration(workers=1):
    count = 1_000_000
    seed = 17
    out = []
    for (name, ifs, measure, dim, tol, corr_sched, box_sched, pairs,
         conv_tol, div_tol) in _calibration_cases():
        # one draw per distinct tolerance: a cloud depends on (tol, seed) only
        clouds = {t: sample_points(ifs, measure, count, tol=t, seed=seed, workers=workers)
                  for t in dict.fromkeys((1e-7, conv_tol, div_tol))}
        corr = correlation_dimension(clouds[1e-7], corr_sched, seed=seed, max_pairs=pairs, workers=workers)
        box = box_counting(clouds[1e-7], box_sched)
        out.append(_within(f"{name}: correlation dimension", corr.value, dim - tol, dim + tol))
        out.append(_within(f"{name}: box-counting dimension", box.value, dim - tol, dim + tol))
        low = empirical_energy(clouds[conv_tol], dim - 0.1, seed=seed, workers=workers)
        high = empirical_energy(clouds[div_tol], dim + 0.3, seed=seed, workers=workers)
        out.append(_flag(f"{name}: energy converges at s = dim - 0.1", low.diverged, expect=False))
        out.append(_flag(f"{name}: energy diverges at s = dim + 0.3", high.diverged, expect=True))
    return out


# ---------------------------------------------------------------------------
# 7. coarse multifractal reproduction on the weighted Cantor measure


def multifractal_reproduction(workers=1):
    count = 10_000_000
    measure = BernoulliMeasure([0.25, 0.75])
    problem = SpectrumProblem(measure.p, _CANTOR.ratios)
    alpha0 = -T_derivative(problem, 0.0)
    alpha1 = -T_derivative(problem, 1.0)
    s0 = problem.similarity_dim
    scale = 3.0 ** -12
    cloud = sample_points(_CANTOR, measure, count, tol=scale / 20.0, seed=23, workers=workers)
    spec = coarse_spectrum(cloud, scale, delta=0.1)
    at1 = int(np.argmin(np.abs(spec.alpha - alpha1)))
    return [
        _within("coarse peak height vs similarity dim", spec.peak_f, s0 - 0.05, s0 + 0.05),
        _within("coarse peak location vs alpha(0)", spec.peak_alpha, alpha0 - 0.05, alpha0 + 0.05),
        _within("coarse f at alpha(1) vs entropy/lyapunov", float(spec.f[at1]), alpha1 - 0.07, alpha1 + 0.07),
    ]


# ---------------------------------------------------------------------------
# 8. projection experiments


def marstrand_suite(num_directions=200, count=200_000, workers=1):
    rep_cc = marstrand_experiment(
        _PRODUCT_CANTOR, _UNIFORM4, d=1, num_directions=num_directions, count=count,
        seed=29, tol=0.1, workers=workers,
    )
    rep_dust = marstrand_experiment(
        _DUST, _UNIFORM2, d=1, num_directions=num_directions, count=count,
        seed=31, tol=0.07, workers=workers,
    )
    axis = marstrand_experiment(
        _PRODUCT_CANTOR, _UNIFORM4, d=1, num_directions=1, count=count,
        seed=29, tol=0.1, directions=[Subspace([[1.0, 0.0]])], workers=workers,
    )
    return [
        _at_least("Cantor x Cantor: fraction within 0.1 of 1.0", rep_cc.fraction_within, 0.9),
        _at_least("planar dust: fraction within 0.07 of 0.63093", rep_dust.fraction_within, 0.9),
        _flag("planted axis direction flagged below prediction", bool(axis.below[0])),
        _within("planted axis projects to the line Cantor dim", float(axis.estimates[0]),
                CANTOR_DIM - 0.07, CANTOR_DIM + 0.07),
    ]


# ---------------------------------------------------------------------------
# 9. separation and Holder suites


def separation_suite(workers=1):
    samples = 100
    rng = substream(37, 5)
    words = _UNIFORM2.sample_batch(samples, 40, rng)
    all_pass = True
    exponents = []
    for row in words:
        rep = ede_check(_CANTOR, tuple(row), range(1, 21), epsilon=0.1, tol=1e-12)
        all_pass = all_pass and rep.all_passed
        exponents.append(rep.worst_exponent)
    # np.max, unlike max, keeps a NaN exponent, and _at_most then fails it
    worst_exponent = float(np.max(exponents))
    rep_overlap = ede_check(_INTERVAL, (0,) + (1,) * 49, range(1, 21), epsilon=0.1, tol=1e-12)
    holder = holder_inverse_check(
        _CANTOR, _UNIFORM2, alphas=[0.5, 0.8, 0.95], pair_samples=40, seed=41
    )
    stable = holder.stabilized()
    return [
        _flag(f"separated Cantor passes depths 1..20 for {samples} words", all_pass),
        _at_most("worst separation exponent stays below 1 + eps", worst_exponent, 1.1),
        _flag("exact-overlap system fails every depth", not rep_overlap.passed.any()),
        _flag("exact-overlap system reports overlap evidence", rep_overlap.overlap_suspected),
        _flag("Holder constants stabilize at alpha = 0.5, 0.8, 0.95", bool(np.all(stable))),
    ]


# ---------------------------------------------------------------------------
# 10. transversality exponent of the affine translation family


def transversality_suite(workers=1):
    samples = 1_000_000
    family = TranslationFamily(_CANTOR, low=np.zeros(2), high=np.ones(2))
    radii = 0.5 * 0.5 ** np.arange(9)
    res = transversality_exponent(
        family, (0,) * 40, (1,) * 40, radii,
        param_samples=samples, seed=7, workers=workers,
    )
    return [
        _within("sublevel-measure decay exponent", res.exponent, 0.95, 1.05),
        _at_most("transversality constant K-hat bounded", res.k_hat, 100.0),
        _flag("separation constraint holds on the family", res.constraint_satisfied),
    ]


# ---------------------------------------------------------------------------
# 11. determinism: worker counts do not change any CSV byte


def _determinism_configs(scale):
    def n(base, floor=1):
        return max(int(base * scale), floor)

    cantor_ifs = {"ratios": [1 / 3, 1 / 3], "translations": [0.0, 2 / 3]}
    cc_ifs = {
        "ratios": [1 / 3] * 4,
        "translations": [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]],
    }
    uniform2 = {"type": "bernoulli", "weights": [0.5, 0.5]}
    return {
        "dimension": {
            "schema": 1, "kind": "dimension", "seed": 17,
            "ifs": cantor_ifs, "measure": uniform2,
            "params": {
                "count": n(1_000_000),
                "correlation": {"r0": 0.5, "levels": 12},
                "box": {"r0": 0.5, "levels": 14, "fit_lo": 2},
                "energy": {"exponents": [CANTOR_DIM - 0.1, CANTOR_DIM + 0.3]},
            },
        },
        "spectrum": {
            "schema": 1, "kind": "spectrum", "seed": 23,
            "ifs": cantor_ifs,
            "measure": {"type": "bernoulli", "weights": [0.25, 0.75]},
            "params": {
                "coarse": {"count": n(10_000_000), "scale": 3.0 ** -12, "delta": 0.1}
            },
        },
        "project": {
            "schema": 1, "kind": "project", "seed": 29,
            "ifs": cc_ifs, "measure": {"type": "bernoulli", "weights": [0.25] * 4},
            "params": {
                "subspace_dim": 1, "directions": n(200, floor=4),
                "count": n(200_000, floor=5_000),
            },
        },
        "ede": {
            "schema": 1, "kind": "ede", "seed": 37,
            "ifs": cantor_ifs, "measure": uniform2,
            "params": {
                "samples": n(100, floor=5), "word_length": 40,
                "depth_min": 1, "depth_max": 20, "epsilon": 0.1,
                "holder": {"alphas": [0.5, 0.8, 0.95], "pair_samples": n(40, floor=5)},
            },
        },
        "transversality": {
            "schema": 1, "kind": "transversality", "seed": 7,
            "ifs": cantor_ifs,
            "params": {
                "low": [[0.0], [0.0]], "high": [[1.0], [1.0]],
                "word_a": [0] * 40, "word_b": [1] * 40,
                "r0": 0.5, "levels": 8, "samples": n(1_000_000),
            },
        },
    }


def determinism_suite(scale=1.0, workers=1):
    """Byte-identical CSVs at workers 1 and 8, whatever `workers` is."""
    out = []
    with tempfile.TemporaryDirectory(prefix="fractdim-verify-") as tmp:
        root = Path(tmp)
        for name, cfg in _determinism_configs(scale).items():
            cfg_path = root / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            dirs = [root / f"{name}-w{w}" for w in (1, 8)]
            codes = [cli.run(cfg_path, d, workers=w) for d, w in zip(dirs, (1, 8))]
            csvs = sorted(p.name for p in dirs[0].glob("*.csv"))
            identical = bool(csvs) and all(
                (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in csvs
            )
            ok = identical and codes[0] == codes[1] == 0
            out.append(_flag(f"{name}: byte-identical CSVs, workers 1 vs 8", ok))
    return out


# ---------------------------------------------------------------------------
# suite registry and driver

SUITES = {
    "closed-form": [closed_form_identities, legendre_oracle, optimal_measures,
                    markov_approximation_suite, gibbs_suite],
    "estimation": [dimension_calibration],
    "multifractal": [multifractal_reproduction],
    "marstrand": [marstrand_suite],
    "marstrand-small": [lambda workers=1: marstrand_suite(num_directions=24, count=40_000, workers=workers)],
    "separation": [separation_suite],
    "transversality": [transversality_suite],
    "determinism": [determinism_suite],
    "determinism-small": [lambda workers=1: determinism_suite(scale=0.02)],
}
# every full-scale suite, in the order above
SUITES["all"] = [fn for name, fns in SUITES.items() if not name.endswith("-small") for fn in fns]


def run_suite(name, workers=1):
    """Run one named suite; returns every CheckResult, printing rows live."""
    results = []
    print(f"{'check':<58} {'expected':>22} {'got':>22} {'tol':>8}  verdict")
    for fn in SUITES[name]:
        for res in fn(workers=workers):
            results.append(res)
            print(res.row())
    good = sum(r.passed for r in results)
    print(f"{good}/{len(results)} checks passed")
    return results
