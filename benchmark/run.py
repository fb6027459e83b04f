"""fractdim benchmark: one workload, one seed, one result line.

    python3 benchmark/run.py --workload {project,cloud,exact} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; it uses the checkout's src/ and writes
only under .bench_out/.  Set-up is timed first: several fresh
interpreters each import fractdim.cli (median taken), then the workload
process generates, loads and validates its inputs.  The workload then
runs in a fresh child process of its own, so its peak RSS is its own,
closed loop with one client: each job starts when the previous one ends.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced job.  The line
before it is a JSON block with the provenance, the sample counts and the
artifact digests.  Exit code 0 means a result was printed; its "correct"
field says whether every check passed and every metric was measured.  A
check that raises counts as failed; a metric that could not be measured
(its jobs all raised) is left out of the result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# a benchmark run must end within 180 s; keep a margin for the parent
DEADLINE_S = 170.0
FRESH_IMPORTS = 5
# one BLAS thread per process: the only parallelism is the job's workers
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("FRACTDIM_BUDGET", None)
    return env


def _fresh_import_seconds(env):
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import fractdim.cli"], env=env, cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - start


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "fractdim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload scale; 'tiny' is for the self-check tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fractdim" / "__init__.py").is_file():
        print(f"no fractdim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()
    env = _env()
    imports = [_fresh_import_seconds(env) for _ in range(FRESH_IMPORTS)]
    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    out_path = workdir / "worker.json"
    out_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", str(workdir), "--out", str(out_path),
    ]
    budget = DEADLINE_S - (time.perf_counter() - start)
    # the child's stdout goes to stderr: stdout carries only the result
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=budget)
    if proc.returncode != 0 or not out_path.exists():
        print(f"workload process failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(out_path.read_text())

    attempted, failed = child["attempted"], child["failed"]
    nan = float("nan")
    if args.trace:
        declared, values = spec["per_layer"], child.get("layers", {})
    else:
        declared = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(imports) + child.get("gen_s", nan),
            "job_s": child.get("job_s", nan),
            "job_w1_s": child.get("job_w1_s", nan),
            "peak_rss_mb": child.get("peak_rss_mb", nan),
            "pass_frac": (attempted - failed) / attempted,
        }
    measured = [m for m in declared if math.isfinite(values.get(m["name"], nan))]
    if len(measured) < len(declared):
        # set-up raised, or every job at some worker count (or every traced
        # job) raised: those failures are counted, and there is no figure
        missing = [m["name"] for m in declared if m not in measured]
        print(f"no measurement for {', '.join(missing)}", file=sys.stderr)
    details = {
        "provenance": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "versions": child.get("versions"),
            "git_commit": _git_commit(),
            "src_sha256": _src_digest(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workers": child.get("workers"),
            "blas_threads": 1,
            "size": child.get("size"),
        },
        "fresh_import_s": imports,
        "gen_s": child.get("gen_s"),
        "rounds": child.get("rounds"),
        "measured_s": child.get("measured_s"),
        "job_samples": child.get("samples"),
        "warmup_samples": child.get("warmup"),
        "traced_samples": child.get("traced_samples"),
        "checks": {"attempted": attempted, "failed": failed,
                   "fail_frac": failed / attempted},
        "artifacts": child.get("artifacts"),
        "counters": child.get("counters"),
    }
    result = {
        "correct": failed == 0 and len(measured) == len(declared),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in measured
        },
    }
    (workdir / "result.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2) + "\n"
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
