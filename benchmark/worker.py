"""One benchmark run of one workload, in a fresh process of its own.

Started by run.py with the checkout's src/ on PYTHONPATH.  It generates
the workload's inputs (timed as set-up), then repeats rounds until the
next round would overrun --seconds.  A round runs the job once untraced
at each worker count and, with --trace 1, once more traced.  The first
round warms the process up (heap growth, first-call costs); its checks
count but its times stay out of the medians, so at least two rounds run.
It writes its figures as JSON to --out.
"""

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import SIZES, WORKLOADS

# job_s is timed at this worker count; job_w1_s at one worker
WORKERS = 2
# work counters of the first traced job, for the exact-repeat record
COUNTERS = ("multifractal.solve_T_calls", "projections.ede_expansions",
            "dimest.boxes", "ifs.points", "runtime.chunks")


def _timed(fn, *args, **kwargs):
    gc.collect()
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def _label(workers):
    return f"w{workers}" if workers else "job"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    size = SIZES[args.size][args.workload]
    try:
        gen_s, wl = _timed(WORKLOADS[args.workload], args.seed, size, args.workdir)
    except Exception:
        # no inputs, so no job: one failed check and nothing measured
        traceback.print_exc()
        print("check failed: set-up raised", file=sys.stderr)
        Path(args.out).write_text(json.dumps({"attempted": 1, "failed": 1, "size": size}) + "\n")
        return 0
    counts = wl.worker_counts
    main_workers = WORKERS if WORKERS in counts else None
    samples = {w: [] for w in counts}
    warmup = {}
    traced = []  # (job seconds, tracer, root span, csv bytes)
    attempted = failed = 0
    rounds = []
    last = {}
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outcomes = {}
        for w in counts:
            try:
                dt, outcomes[w] = _timed(wl.job, w)
                (samples[w] if rounds else warmup.setdefault(w, [])).append(dt)
            except Exception:
                traceback.print_exc()
                attempted += 1
                failed += 1
        checks = []
        if len(outcomes) == len(counts):
            try:
                checks = wl.check(outcomes)
            except Exception:
                traceback.print_exc()
                checks = [("checks raised", False)]
            last = {w: wl.artifacts(o) for w, o in outcomes.items()}
        if args.trace and rounds:
            tracer = tracing.Tracer(args.workload)
            try:
                with tracing.instrument(tracer):
                    # collect first, as _timed does, but outside the root
                    # span: the span is the job and nothing else
                    gc.collect()
                    start = time.perf_counter()
                    with tracer.span("bench.job"):
                        root_id = tracer.current()
                        out = wl.job(main_workers, tag="-traced")
                    dt = time.perf_counter() - start
                root = next(s for s in tracer.spans if s["id"] == root_id)
                digests = wl.artifacts(out)
                traced.append((dt, tracer, root, wl.csv_bytes(out)))
                if main_workers in outcomes:
                    checks.append(("traced job writes the untraced job's artifacts",
                                   digests == last.get(main_workers)))
            except Exception:
                traceback.print_exc()
                checks.append(("traced job raised", False))
        for name, ok in checks:
            attempted += 1
            if not ok:
                failed += 1
                print(f"check failed: {name}", file=sys.stderr)
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - begin
        if len(rounds) > 1 and elapsed + statistics.median(rounds) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job = {w: statistics.median(v) if v else float("nan") for w, v in samples.items()}
    job_s = job[main_workers]
    job_w1_s = job.get(1, job_s)
    result = {
        "attempted": attempted,
        "failed": failed,
        "gen_s": gen_s,
        "job_s": job_s,
        "job_w1_s": job_w1_s,
        "peak_rss_mb": peak_rss_mb,
        "rounds": len(rounds),
        "measured_s": time.perf_counter() - begin,
        "samples": {_label(w): v for w, v in samples.items()},
        "warmup": {_label(w): v for w, v in warmup.items()},
        "workers": {"job_s": main_workers, "job_w1_s": 1 if 1 in counts else main_workers},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "artifacts": {_label(w): d for w, d in last.items()},
        "size": size,
    }
    if args.trace:
        per_job = []
        for _, tracer, root, csv_bytes in traced:
            m = tracing.layer_metrics(tracer, root)
            m["cli.csv_bytes"] = csv_bytes
            per_job.append(m)
        # with no finished traced job there are no layers; run.py then
        # reports the failed checks without per-layer figures
        layers, counters = {}, None
        if per_job:
            layers = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
            layers["runtime.scaling_eff"] = job_w1_s / (2.0 * job_s)
            layers["trace.overhead_s"] = statistics.median(t[0] for t in traced) - job_s
            counters = {k: per_job[0][k] for k in COUNTERS}
        result["layers"] = layers
        result["traced_samples"] = [t[0] for t in traced]
        result["counters"] = counters
        spans = [s for _, tracer, _, _ in traced for s in tracer.spans]
        (Path(args.workdir) / "trace.json").write_text(
            json.dumps({"spans": spans, "counts": [t[1].counts for t in traced]}) + "\n"
        )
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
