"""Repeat benchmark runs over seeds and summarise them.

    python3 benchmark/collect.py --workloads project cloud exact \
        --seeds 10 --trace 0 --out .bench_out/summary.json

For every workload it runs benchmark/run.py once per seed (--seeds of them,
counting up from --first-seed), and reports each metric's median, first and third
quartile (statistics.quantiles, n=4) and spread = (q3 - q1) / median.
With --trace 1 it adds each layer's share of the traced job wall time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# layer spans that run on the job's own thread, so their sum over the job
# is a share of its wall time
SHARES = {
    "pair_profile": "dimest.pair_profile_s",
    "sample_points": "ifs.sample_points_s",
    "grid_build": "dimest.grid_build_s",
    "box_counting": "dimest.box_counting_s",
    "coarse_spectrum": "dimest.coarse_spectrum_s",
    "solve_T_scalar": "multifractal.solve_T_s",
    "legendre": "multifractal.legendre_s",
    "ede_check": "projections.ede_s",
    "holder": "projections.holder_s",
    "cli_self": "cli.self_s",
}


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details, result, wall


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    out_path = Path(args.out)
    summary = json.loads(out_path.read_text()) if out_path.exists() else {}
    section = summary.setdefault("per_layer" if args.trace else "end_to_end", {})
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            details, result, wall = run_once(workload, seed, seconds, args.trace)
            runs.append((details, result, wall))
            line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], line if not args.trace else "", flush=True)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for _, r, _ in runs])
            for name in runs[0][1]["metrics"]
        }
        entry = {
            "seeds": [d["provenance"]["seed"] for d, _, _ in runs],
            "seconds": seconds,
            "run_wall_s": [w for _, _, w in runs],
            "all_correct": all(r["correct"] for _, r, _ in runs),
            "attempted": [r["attempted"] for _, r, _ in runs],
            "rounds": [d["rounds"] for d, _, _ in runs],
            "metrics": metrics,
        }
        if args.trace:
            job = metrics["trace.job_s"]["median"]
            entry["shares"] = {
                name: metrics[key]["median"] / job for name, key in SHARES.items()
            }
        section[workload] = entry
        summary["provenance"] = {
            k: runs[0][0]["provenance"][k]
            for k in ("nproc", "cpu_model", "versions", "git_commit", "src_sha256", "blas_threads")
        }
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        for name, m in metrics.items():
            if not args.trace:
                print(f"  {name}: median {m['median']:.4g} spread {m['spread']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
