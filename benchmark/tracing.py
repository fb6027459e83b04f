"""In-memory span recorder and the instrumentation of fractdim's layers.

Spans are recorded from outside the library: `instrument` replaces each
traced function at every fractdim module attribute that holds it (the
names its callers resolve at call time) with a wrapper that records a
span, and puts the originals back on exit.  Nothing under src/ changes.

A span is (id, parent, name, start, end, thread, workload, attrs).  The
parent is the innermost open span of the same thread.  A chunk that
`run_chunks` hands to a pool thread is a span of its own, named after the
module whose code it runs (`dimest.chunk`, `ifs.chunk`), with the
`run_chunks` span as its parent, so thread-pool work stays attached to
the call that caused it.
"""

import itertools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Collects spans and counters in memory; nothing is written until asked."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, parent=None, **attrs):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "thread": threading.get_ident(),
                    "workload": self.workload,
                    "attrs": attrs,
                }
            )

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _pair_count(args, kwargs):
    # dimest._pair_profile(cloud, radii, powers, seed, max_pairs, workers):
    # stratum t pairs each of min(n, max_pairs) points with one partner,
    # over max(1, min(max_pairs // n, n - 1)) strata
    n = _arg(args, kwargs, 0, "cloud").size
    max_pairs = int(_arg(args, kwargs, 4, "max_pairs"))
    return {"pairs": max(1, min(max_pairs // n, n - 1)) * min(n, max_pairs)}


# (defining module, attribute, span name, attrs from (args, kwargs, result))
_FUNCTIONS = [
    ("cli", "run", "cli.run", None),
    ("cli", "load_config", "cli.load_config", None),
    ("dimest", "correlation_dimension", "dimest.correlation_dimension", None),
    ("dimest", "empirical_energy", "dimest.empirical_energy", None),
    ("dimest", "_pair_profile", "dimest._pair_profile",
     lambda a, k, r: _pair_count(a, k)),
    ("dimest", "box_counting", "dimest.box_counting",
     lambda a, k, r: {"boxes": int(r.profile.sum())}),
    ("dimest", "coarse_spectrum", "dimest.coarse_spectrum", None),
    ("ifs", "sample_points", "ifs.sample_points",
     lambda a, k, r: {"points": int(r.size)}),
    ("ifs", "_project_batch", "ifs._project_batch", None),
    ("measures", "markov_approximation", "measures.markov_approximation", None),
    ("measures", "gibbs_from_potential", "measures.gibbs_from_potential", None),
    ("multifractal", "solve_T", "multifractal.solve_T", None),
    ("multifractal", "solve_T_many", "multifractal.solve_T_many",
     lambda a, k, r: {"q_points": int(r.size)}),
    ("multifractal", "legendre", "multifractal.legendre", None),
    ("multifractal", "optimal_measure", "multifractal.optimal_measure", None),
    ("multifractal", "spectrum_curve", "multifractal.spectrum_curve", None),
    ("projections", "marstrand_experiment", "projections.marstrand_experiment",
     lambda a, k, r: {"directions": len(r.directions)}),
    ("projections", "project_cloud", "projections.project_cloud", None),
    ("projections", "ede_check", "projections.ede_check",
     lambda a, k, r: {"expansions": int(r.expansions)}),
    ("projections", "holder_inverse_check", "projections.holder_inverse_check", None),
]

# (defining module, class, method, span name, attrs from (args, kwargs, result))
_METHODS = [
    ("dimest", "_GridIndex", "__init__", "dimest._GridIndex", None),
    ("measures", "BernoulliMeasure", "sample_batch", "measures.sample_batch",
     lambda a, k, r: {"symbols": int(r.size)}),
    ("measures", "MarkovMeasure", "sample_batch", "measures.sample_batch",
     lambda a, k, r: {"symbols": int(r.size)}),
]


def _span_wrapper(tracer, fn, name, attrs_of):
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs.update(attrs_of(args, kwargs, result))
            return result

    traced.__wrapped__ = fn
    return traced


def _run_chunks_wrapper(tracer, fn, caller):
    # runtime.run_chunks(fn, n_items, workers=1, chunk=CHUNK)
    def traced(chunk_fn, n_items, workers=1, **kwargs):
        with tracer.span("runtime.run_chunks", workers=int(workers)) as attrs:
            owner = tracer.current()

            def chunk(idx, lo, hi):
                with tracer.span(f"{caller}.chunk", parent=owner):
                    return chunk_fn(idx, lo, hi)

            out = fn(chunk, n_items, workers=workers, **kwargs)
            attrs["chunks"] = len(out)
            return out

    traced.__wrapped__ = fn
    return traced


def _counter_wrapper(tracer, fn, name):
    def counted(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


@contextmanager
def instrument(tracer):
    """Route every traced fractdim call through `tracer` while inside."""
    from fractdim import runtime, symbolic

    modules = [m for key, m in sorted(sys.modules.items())
               if key == "fractdim" or key.startswith("fractdim.")]
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_everywhere(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, attr, wrapper)

    try:
        for mod_name, attr, name, attrs_of in _FUNCTIONS:
            original = getattr(sys.modules[f"fractdim.{mod_name}"], attr)
            patch_everywhere(original, _span_wrapper(tracer, original, name, attrs_of))
        for mod in modules:
            if mod is not runtime and vars(mod).get("run_chunks") is runtime.run_chunks:
                caller = mod.__name__.rpartition(".")[2]
                patch(mod, "run_chunks",
                      _run_chunks_wrapper(tracer, runtime.run_chunks, caller))
        for mod_name, cls_name, attr, name, attrs_of in _METHODS:
            cls = getattr(sys.modules[f"fractdim.{mod_name}"], cls_name)
            patch(cls, attr, _span_wrapper(tracer, cls.__dict__[attr], name, attrs_of))
        weight = symbolic.AdaptedMetric.weight
        patch(symbolic.AdaptedMetric, "weight",
              _counter_wrapper(tracer, weight, "symbolic.weight_calls"))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Reading a trace


def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _subtree(spans, root_id):
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = []
    todo = list(children.get(root_id, []))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s["id"], []))
    return out, children


def self_times(spans, root_id):
    """Self time of every span under the root: duration minus child cover."""
    below, children = _subtree(spans, root_id)
    out = {}
    for s in below:
        kids = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(kids)
    return below, out


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


MODULES = ("cli", "dimest", "ifs", "measures", "multifractal", "projections", "runtime")


def layer_metrics(tracer, root):
    """Per-layer figures of one traced job, keyed by benchmark metric name.

    Times summed over spans of worker threads are thread-seconds, so on a
    two-worker job they may exceed the job's wall time.
    """
    below, selfs = self_times(tracer.spans, root["id"])
    by_name = {}
    for s in below:
        by_name.setdefault(s["name"], []).append(s)

    def dur(name):
        return [s["end"] - s["start"] for s in by_name.get(name, [])]

    def total(name):
        return sum(dur(name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, []))

    def self_of(name):
        return sum(selfs[s["id"]] for s in by_name.get(name, []))

    ids = {s["id"]: s for s in below}

    def inside(s, name):
        p = s["parent"]
        while p in ids:
            if ids[p]["name"] == name:
                return True
            p = ids[p]["parent"]
        return False

    bulk = [s for s in by_name.get("multifractal.solve_T_many", [])
            if not inside(s, "multifractal.solve_T")]
    job_wall = root["end"] - root["start"]
    pairs = attr_sum("dimest._pair_profile", "pairs")
    pair_s = total("dimest._pair_profile")
    points = attr_sum("ifs.sample_points", "points")
    sample_s = total("ifs.sample_points")
    chunks = [s for s in below if s["name"].endswith(".chunk")]
    busy = sum(s["end"] - s["start"] for s in chunks)
    capacity = 0.0
    for s in by_name.get("runtime.run_chunks", []):
        n = s["attrs"].get("chunks", 0)
        threads = 1 if s["attrs"]["workers"] <= 1 or n <= 1 else min(s["attrs"]["workers"], n)
        capacity += threads * (s["end"] - s["start"])
    # time outside every library span: the job root's own self time (the
    # benchmark's glue) plus that of `cli.run`, which wraps whole jobs
    root_self = job_wall - _union_length(
        [(max(s["start"], root["start"]), min(s["end"], root["end"]))
         for s in below if s["parent"] == root["id"]]
    )
    uncovered = root_self + self_of("cli.run")
    metrics = {
        "dimest.correlation_s": total("dimest.correlation_dimension"),
        "dimest.correlation_calls": len(dur("dimest.correlation_dimension")),
        "dimest.pair_profile_s": pair_s,
        "dimest.pairs": pairs,
        "dimest.pairs_per_s": pairs / pair_s if pair_s > 0 else 0.0,
        "dimest.energy_s": total("dimest.empirical_energy"),
        "dimest.box_counting_s": total("dimest.box_counting"),
        "dimest.boxes": attr_sum("dimest.box_counting", "boxes"),
        "dimest.coarse_spectrum_s": total("dimest.coarse_spectrum"),
        "dimest.grid_build_s": total("dimest._GridIndex"),
        "ifs.sample_points_s": sample_s,
        "ifs.project_words_s": total("ifs._project_batch"),
        "ifs.points": points,
        "ifs.points_per_s": points / sample_s if sample_s > 0 else 0.0,
        "measures.sample_batch_s": total("measures.sample_batch"),
        "measures.symbols": attr_sum("measures.sample_batch", "symbols"),
        "measures.markov_approximation_s": total("measures.markov_approximation"),
        "measures.gibbs_s": total("measures.gibbs_from_potential"),
        "multifractal.legendre_s": total("multifractal.legendre"),
        "multifractal.legendre_p50_ms": 1e3 * _pct(dur("multifractal.legendre"), 50),
        "multifractal.legendre_p90_ms": 1e3 * _pct(dur("multifractal.legendre"), 90),
        "multifractal.optimal_measure_s": total("multifractal.optimal_measure"),
        "multifractal.solve_T_calls": len(dur("multifractal.solve_T")),
        "multifractal.solve_T_s": total("multifractal.solve_T"),
        "multifractal.solve_T_many_s": sum(s["end"] - s["start"] for s in bulk),
        "multifractal.q_points": sum(s["attrs"]["q_points"] for s in bulk),
        "multifractal.spectrum_curve_s": total("multifractal.spectrum_curve"),
        "projections.marstrand_self_s": self_of("projections.marstrand_experiment"),
        "projections.project_cloud_s": total("projections.project_cloud"),
        "projections.directions": attr_sum("projections.marstrand_experiment", "directions"),
        "projections.ede_s": total("projections.ede_check"),
        "projections.ede_expansions": attr_sum("projections.ede_check", "expansions"),
        "projections.ede_p50_ms": 1e3 * _pct(dur("projections.ede_check"), 50),
        "projections.ede_p90_ms": 1e3 * _pct(dur("projections.ede_check"), 90),
        "projections.holder_s": total("projections.holder_inverse_check"),
        "symbolic.weight_calls": tracer.counts.get("symbolic.weight_calls", 0),
        "cli.run_self_s": self_of("cli.run"),
        "cli.load_config_s": total("cli.load_config"),
        "runtime.chunks": len(chunks),
        "runtime.busy_s": busy,
        "runtime.idle_s": capacity - busy,
        "trace.job_s": job_wall,
        "trace.coverage": 1.0 - uncovered / job_wall if job_wall > 0 else 0.0,
        "trace.spans": len(below),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(
            selfs[s["id"]] for s in below if s["name"].startswith(module + ".")
        )
    return metrics
