"""The three benchmark workloads: inputs from a seed, the job, the checks.

project  `cli.run` on a Marstrand `project` config (Cantor x Cantor, the
         shape of configs/marstrand_projection.json).  The correlation
         pair profile is nearly all of its time; no grid is built.
cloud    `cli.run` on a `dimension` config and a `spectrum`+`coarse`
         config.  Point sampling and grid builds dominate; it holds the
         largest clouds, so memory traded for speed shows in peak RSS.
exact    direct library calls on closed-form objects: structure-function
         roots in bulk and scalar form, Legendre transforms, optimal
         measures, the separation branch-and-bound, Holder checks, Markov
         approximations and Gibbs states.  No point cloud, grid or pair
         sample, so changes to those paths should leave it unchanged.

Inputs come from numpy generators seeded by the benchmark seed, never
from the library's own stream helpers, so a library change cannot change
what the benchmark feeds it.  The one exception is `exact`'s spectrum
problems, which are fixed so that every seed costs the same.  Every check
returns (name, passed); the runner counts them.
"""

import contextlib
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from fractdim import cli, ifs, measures, multifractal, projections

LOG2_LOG3 = math.log(2.0) / math.log(3.0)

SIZES = {
    # jobs of a few seconds, so that one run holds several rounds and its
    # medians hold still on a shared two-core machine
    "full": {
        "project": {"count": 100_000, "directions": 20},
        "cloud": {"dimension_count": 500_000, "coarse_count": 2_000_000},
        "exact": {"problems": 6, "alphas": 20, "optimal_every": 4, "q_points": 4001,
                  "words": 60, "depth_max": 20, "holder_samples": 40,
                  "kernels": 10, "max_order": 6, "potentials": 10},
    },
    # a few seconds per workload, for the benchmark's own self-check
    "tiny": {
        "project": {"count": 20_000, "directions": 2},
        "cloud": {"dimension_count": 100_000, "coarse_count": 200_000},
        "exact": {"problems": 3, "alphas": 8, "optimal_every": 4, "q_points": 201,
                  "words": 6, "depth_max": 8, "holder_samples": 4,
                  "kernels": 2, "max_order": 3, "potentials": 2},
    },
}

_CANTOR = {"ratios": [1 / 3, 1 / 3], "translations": [0.0, 2 / 3]}
_CANTOR_SQUARE = {
    "ratios": [1 / 3] * 4,
    "translations": [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]],
}


def _rng(seed, tag):
    return np.random.default_rng([int(seed), int(tag)])


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


class _CliWorkload:
    """Jobs that run generated configs through `cli.run`."""

    worker_counts = (1, 2)

    def __init__(self, seed, size, workdir):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.configs = {
            name: _write_config(self.workdir / f"{name}.json", cfg)
            for name, cfg in self.generate(seed % 2**31, size).items()
        }
        for path in self.configs.values():
            cli.load_config(path)

    def job(self, workers, tag=""):
        runs = {}
        for name, path in self.configs.items():
            out = self.workdir / f"out-{name}-w{workers}{tag}"
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.run(path, out, workers=workers)
            runs[name] = (code, out)
        return runs

    def artifacts(self, runs):
        """sha256 of every CSV and summary a job wrote; manifests hold wall times."""
        out = {}
        for name, (_, directory) in runs.items():
            for path in sorted(directory.iterdir()):
                if path.name != "manifest.json":
                    out[f"{name}/{path.name}"] = _digest(path.read_bytes())
        return out

    def csv_bytes(self, runs):
        return sum(
            p.stat().st_size for _, d in runs.values() for p in d.glob("*.csv")
        )

    def check(self, by_workers):
        results = []
        for workers, runs in by_workers.items():
            for name, (code, out) in runs.items():
                results.append((f"{name} w{workers}: exit code 0", code == 0))
                quantities = json.loads((out / "summary.json").read_text())["quantities"]
                results.extend(self.check_quantities(name, workers, quantities))
        first, second = (self.artifacts(by_workers[w]) for w in self.worker_counts)
        for key in sorted(first):
            if key.endswith(".csv"):
                results.append(
                    (f"{key}: identical at workers 1 and 2", first[key] == second.get(key))
                )
        return results


class Project(_CliWorkload):
    def generate(self, seed, size):
        return {
            "project": {
                "schema": 1, "kind": "project", "seed": seed,
                "ifs": _CANTOR_SQUARE,
                "measure": {"type": "bernoulli", "weights": [0.25] * 4},
                "params": {"subspace_dim": 1, "directions": size["directions"],
                           "count": size["count"]},
                "assert": [
                    {"quantity": "predicted", "value": 1.0, "tol": 1e-12},
                    {"quantity": "fraction_within", "min": 0.85, "max": 1.0},
                ],
            }
        }

    def check_quantities(self, name, workers, q):
        return [(f"{name} w{workers}: fraction_within >= 0.9", q["fraction_within"] >= 0.9)]


class Cloud(_CliWorkload):
    def generate(self, seed, size):
        return {
            "dimension": {
                "schema": 1, "kind": "dimension", "seed": seed, "ifs": _CANTOR,
                "measure": {"type": "bernoulli", "weights": [0.5, 0.5]},
                "params": {
                    "count": size["dimension_count"],
                    "correlation": {"r0": 0.5, "levels": 12},
                    "box": {"r0": 0.5, "levels": 14, "fit_lo": 2},
                    "energy": {"exponents": [0.53, 0.93]},
                },
                "assert": [
                    {"quantity": "correlation", "value": LOG2_LOG3, "tol": 0.06},
                    {"quantity": "box", "value": LOG2_LOG3, "tol": 0.06},
                ],
            },
            "spectrum": {
                "schema": 1, "kind": "spectrum", "seed": seed, "ifs": _CANTOR,
                "measure": {"type": "bernoulli", "weights": [0.25, 0.75]},
                "params": {"coarse": {"count": size["coarse_count"],
                                      "scale": 3.0 ** -12, "delta": 0.1}},
                "assert": [
                    {"quantity": "T_at_1", "value": 0.0, "tol": 1e-12},
                    {"quantity": "similarity_dim", "value": LOG2_LOG3, "tol": 1e-12},
                ],
            },
        }

    def check_quantities(self, name, workers, q):
        if name != "dimension":
            return []
        return [
            (f"{name} w{workers}: {key} within 0.05 of log2/log3",
             abs(q[key] - LOG2_LOG3) <= 0.05)
            for key in ("correlation", "box")
        ]


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return [[c, -s], [s, c]]


class Exact:
    """Closed-form library calls; none of them takes a worker count."""

    worker_counts = (None,)

    def __init__(self, seed, size, workdir):
        self.size = size
        # The problems come from a fixed stream, not from the seed: the
        # number of root solves behind `legendre` and `optimal_measure`
        # depends on the weights, the ratios and even the order of the maps,
        # so seeded problems would make each seed a different amount of work.
        fixed = _rng(0, 0)
        self.problems = []
        for i in range(size["problems"]):
            m = 2 + i % 3
            self.problems.append(
                multifractal.SpectrumProblem(
                    fixed.dirichlet(np.ones(m)), fixed.uniform(0.15, 0.6, size=m)
                )
            )
        self.q_grid = np.linspace(-20.0, 20.0, size["q_points"])
        # one straight and one rotated system: the two branches of the
        # separation branch-and-bound, both strongly separated
        straight = ifs.SimilarityIFS(**_CANTOR)
        rotated = ifs.SimilarityIFS(
            ratios=[0.3] * 3,
            translations=[[0.0, 0.0], [0.7, 0.0], [0.35, 0.6]],
            orthogonal=[_rotation(a) for a in (0.7, 2.1, -1.3)],
        )
        self.systems = []
        for k, system in enumerate((straight, rotated)):
            uniform = measures.BernoulliMeasure(np.full(system.m, 1.0 / system.m))
            words = uniform.sample_batch(size["words"], 40, _rng(seed, 2 + k))
            self.systems.append((system, uniform, [tuple(int(s) for s in w) for w in words]))
        rng = _rng(seed, 4)
        self.kernels = [rng.dirichlet(np.ones(2), size=8) for _ in range(size["kernels"])]
        self.potentials = [
            measures.LocallyConstantPotential(3, 2, rng.normal(scale=0.8, size=8))
            for _ in range(size["potentials"])
        ]
        self.holder_seed = int(seed) % 2**31

    def job(self, workers, tag=""):
        mf, size = multifractal, self.size
        out = {"spectra": [], "ede": [], "holder": [], "markov": [], "gibbs": []}
        for problem in self.problems:
            curve = mf.spectrum_curve(problem)
            bulk = mf.solve_T_many(problem, self.q_grid)
            alphas = np.linspace(
                -mf.T_derivative(problem, 8.0), -mf.T_derivative(problem, -8.0), size["alphas"]
            )
            f = [mf.legendre(problem, a) for a in alphas]
            system = ifs.SimilarityIFS(
                ratios=problem.ratios, translations=np.arange(problem.m, dtype=float)
            )
            optimal = []
            for a in alphas[:: size["optimal_every"]]:
                nu = mf.optimal_measure(problem, a)
                optimal.append(ifs.symbolic_dimension(nu, system).value)
            out["spectra"].append({
                "T1": mf.solve_T(problem, 1.0),
                "T0": mf.solve_T(problem, 0.0),
                "similarity_dim": problem.similarity_dim,
                "curve_f": curve.f.tolist(),
                "bulk_T": bulk.tolist(),
                "alphas": alphas.tolist(),
                "f": f,
                "optimal_dim": optimal,
            })
        depths = range(1, size["depth_max"] + 1)
        for system, uniform, words in self.systems:
            reports = [projections.ede_check(system, w, depths, 0.1, 1e-12) for w in words]
            out["ede"].append([(r.all_passed, r.expansions, r.dist_lower.tolist())
                               for r in reports])
            holder = projections.holder_inverse_check(
                system, uniform, [0.5, 0.8, 0.95], size["holder_samples"], self.holder_seed
            )
            out["holder"].append(holder.overall.tolist())
        for kernel in self.kernels:
            mu = measures.MarkovMeasure.from_kernel(kernel, order=3)
            h = mu.entropy()
            rows = []
            for k in range(1, size["max_order"] + 1):
                nu = measures.markov_approximation(mu, k)
                rows.append((measures.relative_entropy(mu, nu), nu.entropy() - h))
            out["markov"].append(rows)
        for pot in self.potentials:
            gm = measures.gibbs_from_potential(pot)
            out["gibbs"].append((gm.pressure, gm.constant))
        return out

    def artifacts(self, out):
        text = json.dumps(out, sort_keys=True, default=float).encode()
        return {"exact.json": _digest(text)}

    def csv_bytes(self, out):
        return 0

    def check(self, by_workers):
        (out,) = by_workers.values()
        results = []
        step = self.size["optimal_every"]
        for i, s in enumerate(out["spectra"]):
            results.append((f"problem {i}: T(1) = 0", abs(s["T1"]) <= 1e-12))
            results.append((f"problem {i}: T(0) = similarity dim",
                            abs(s["T0"] - s["similarity_dim"]) <= 1e-12))
            for a, dim, f in zip(s["alphas"][::step], s["optimal_dim"], s["f"][::step]):
                results.append((f"problem {i}: dim of optimal measure = T*({a:.6g})",
                                abs(dim - f) <= 1e-9))
        for k, reports in enumerate(out["ede"]):
            for j, (passed, _, _) in enumerate(reports):
                results.append((f"system {k} word {j}: every EDE depth passes", passed))
        for i, rows in enumerate(out["markov"]):
            for k, (rel, gap) in enumerate(rows, start=1):
                results.append((f"kernel {i} order {k}: h(mu||mu_k) = h(mu_k) - h(mu)",
                                abs(rel - gap) <= 1e-10))
        return results


WORKLOADS = {"project": Project, "cloud": Cloud, "exact": Exact}
