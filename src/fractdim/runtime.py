"""Deterministic RNG streams, chunked parallel execution, enumeration budgets.

Reproducibility contract: every randomized routine derives its generators
from (seed, stream key) pairs via counter-based Philox streams.  Work is cut
into fixed-size chunks keyed by chunk index, so results are identical for any
worker count; workers only change who executes a chunk, never its stream.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import BudgetExceededError, PreconditionError

# Fixed chunk size for sample streams.  Changing it changes every derived
# stream, so it is a constant of the format, not a tuning knob.
CHUNK = 1 << 16

BUDGET_ENV = "FRACTDIM_BUDGET"
DEFAULT_BUDGET = 1 << 22


def substream(seed, *key):
    """Independent generator for (seed, key).

    Streams with distinct keys are statistically independent, and the mapping
    is pure: the same (seed, key) always yields the same stream regardless of
    process, thread, or call order.
    """
    seed = int(seed)
    if seed < 0:
        raise PreconditionError("seed must be a non-negative integer")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def enumeration_budget():
    """Node budget for cylinder enumerations, overridable via FRACTDIM_BUDGET."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise PreconditionError(f"{BUDGET_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        raise PreconditionError(f"{BUDGET_ENV} must be positive, got {value}")
    return value


def _integer(value, what):
    """A count argument as an int (3.0 is 3); a non-integral value is refused by name."""
    try:
        integral = value == int(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise PreconditionError(f"{what} must be an integer, got {value}")
    return int(value)


def check_budget(requested, what="enumeration"):
    budget = enumeration_budget()
    if requested > budget:
        raise BudgetExceededError(
            f"{what} needs {requested} nodes, budget is {budget} "
            f"(raise {BUDGET_ENV} to override)"
        )
    return budget


def check_table_budget(m, n, what):
    """check_budget(m**n), refusing before m**n is built when n alone is over."""
    budget = enumeration_budget()
    # for m >= 2, m**n > budget once n exceeds the budget's bit length
    if n > budget or (m > 1 and n > budget.bit_length()):
        raise BudgetExceededError(
            f"{what} needs {m}**{n} nodes, budget is {budget} "
            f"(raise {BUDGET_ENV} to override)"
        )
    return check_budget(m**n, what)


def chunk_ranges(n_items, chunk=CHUNK):
    """Yield (chunk_index, start, stop) covering range(n_items)."""
    n_items = int(n_items)
    idx = 0
    start = 0
    while start < n_items:
        stop = min(start + chunk, n_items)
        yield idx, start, stop
        idx += 1
        start = stop


def run_chunks(fn, n_items, workers=1, chunk=CHUNK):
    """Run fn(chunk_index, start, stop) over all chunks; results in chunk order.

    The chunk decomposition is independent of `workers`, and results are
    collected by index, so the returned list is identical for any worker
    count.  fn must be pure given its arguments.
    """
    jobs = list(chunk_ranges(n_items, chunk))
    if workers <= 1 or len(jobs) <= 1:
        return [fn(idx, lo, hi) for idx, lo, hi in jobs]
    out = [None] * len(jobs)
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        futures = {pool.submit(fn, idx, lo, hi): idx for idx, lo, hi in jobs}
        for fut, idx in futures.items():
            out[idx] = fut.result()
    return out


def freeze(arr):
    """Mark an array read-only and return it (models stay immutable)."""
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr
