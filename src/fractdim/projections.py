"""Projections and separation checks for self-similar measures.

Invariant Grassmannian draws, orthogonal projection of point clouds,
Marstrand-prediction experiments over sampled directions, a certified
exponential-separation checker on cylinder trees, and the empirical
Holder-inverse companion.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dimest import (
    PointCloud,
    RadiusSchedule,
    _RUN_PAIRS,
    _correlation_fit,
    _pair_profile,
    _pair_sample,
)
from .errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    EstimationError,
    PreconditionError,
)
from .ifs import (
    _apply_maps, _natural_projection, _prefix_weights, _project_batch, sample_points,
    symbolic_dimension,
)
from .runtime import _integer, check_budget, enumeration_budget, freeze, substream
from .symbolic import as_word

_FRAME_TOL = 1e-10
_MAX_REDRAWS = 8
_SAMPLE_TOL = 1e-7
_MIN_TAIL_HITS = 150.0
_FIT_SKIP = 3
# substream tags, one per consumer of randomness
_STREAM_FRAMES = 21
_STREAM_BASE_WORDS = 23
# base words per batched Holder descent; rows are independent, so this
# sets memory only, never a result
_HOLDER_BLOCK = 64
# directions per pass over the pair sample; each is summed on its own in
# the same order, so this sets memory only, never a result
_DIRECTION_BLOCK = 4


@dataclass(frozen=True)
class Subspace:
    """Linear subspace given by orthonormal basis rows (d, n)."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        if basis.ndim != 2 or not 1 <= basis.shape[0] <= basis.shape[1]:
            raise PreconditionError("basis must be (d, n) rows with d <= n")
        gram = basis @ basis.T
        defect = np.max(np.abs(gram - np.eye(basis.shape[0])))
        if defect > _FRAME_TOL:
            raise PreconditionError(
                f"basis rows not orthonormal (defect {defect:.3g})"
            )
        object.__setattr__(self, "basis", freeze(basis))

    @property
    def ambient(self):
        return self.basis.shape[1]

    @property
    def dim(self):
        return self.basis.shape[0]


def sample_subspace(n, d, seed, index=0):
    """Invariant random d-plane in R^n: QR frame of a Gaussian draw.

    The rotation invariance of the Gaussian makes the row span invariant
    under the orthogonal group; column signs are fixed by the R diagonal
    so the frame itself is a deterministic function of the draw.
    """
    n = _integer(n, "ambient dimension")
    d = _integer(d, "subspace dimension")
    if not 1 <= d < n:
        raise PreconditionError("need 1 <= d < n for a proper subspace")
    rng = substream(seed, _STREAM_FRAMES, index)
    for _ in range(_MAX_REDRAWS):
        g = rng.standard_normal((n, d))
        q, r = np.linalg.qr(g)
        diag = np.diag(r)
        if np.min(np.abs(diag)) <= 1e-12:
            continue
        return Subspace((q * np.sign(diag)).T)
    raise EstimationError("degenerate Gaussian draws for a subspace frame")


def project_cloud(cloud, subspace):
    """Coordinates of each point in the subspace basis.

    Orthogonal projection is 1-Lipschitz, so the truncation certificate
    of the source cloud remains valid.
    """
    if cloud.ambient_dim != subspace.ambient:
        raise PreconditionError("cloud and subspace ambient dimensions differ")
    # the product is a fresh array, so the cloud takes it without a copy
    return PointCloud._own(cloud.points @ subspace.basis.T, cloud.truncation_error)


@dataclass(frozen=True)
class MarstrandReport:
    """Per-direction projected-dimension estimates against the prediction."""

    estimates: np.ndarray
    stderrs: np.ndarray
    predicted: float
    tolerance: float
    fraction_within: float
    below: np.ndarray
    quantiles: np.ndarray
    directions: tuple


def _projection_schedule(points, truncation_error, predicted, max_pairs):
    """Dyadic schedule whose finest scale still resolves enough pairs.

    The expected pair count at radius r scales like (r / r0)^dim, so the
    level count follows from the pair budget; the floor guard caps it.
    """
    spread = float(np.max(points.max(axis=0) - points.min(axis=0)))
    if spread == 0.0:
        spread = 1.0
    r0 = spread / 4.0
    depth = math.log2(max_pairs / _MIN_TAIL_HITS) / max(predicted, 0.5)
    levels = int(min(16, max(_FIT_SKIP + 3, math.floor(depth))))
    floor = 10.0 * truncation_error
    if floor > 0:
        levels = min(levels, int(math.floor(math.log2(r0 / floor))))
    return RadiusSchedule(r0=r0, levels=levels, fit_lo=_FIT_SKIP, fit_hi=levels)


def _direction_error(j, exc):
    """An error of exc's type whose message names direction j."""
    return type(exc)(f"direction {j}: {exc}")


def marstrand_experiment(
    ifs,
    measure,
    d,
    num_directions,
    count,
    seed,
    tol=0.1,
    directions=None,
    max_pairs=_RUN_PAIRS,
    workers=1,
):
    """Projected correlation dimensions against min(d, h/chi).

    Samples one cloud from the measure, projects it onto sampled (or
    supplied) d-planes, and reports how many direction estimates fall
    within tol of the prediction.  Projection keeps the point count, so
    one pair sample serves every direction, and one pass over each of its
    strata serves a block of _DIRECTION_BLOCK directions: only that
    block's projected coordinates are held, and the strata run in
    parallel.
    Exceptional directions are expected on a null set, so the report
    never claims every direction conforms.
    """
    n = ifs.ambient_dim
    if not 1 <= d < n:
        raise PreconditionError("projection dimension must satisfy 1 <= d < n")
    if directions is None:
        num_directions = _integer(num_directions, "direction count")
        if num_directions < 1:
            raise PreconditionError("need at least one direction")
        # refused before sampling: each direction is drawn one by one
        check_budget(num_directions, "Marstrand directions")
    sym = symbolic_dimension(measure, ifs)
    predicted = min(float(d), sym.value)
    cloud = sample_points(
        ifs, measure, count, tol=_SAMPLE_TOL, seed=seed, workers=workers
    )
    if directions is None:
        directions = tuple(
            sample_subspace(n, d, seed, index=j) for j in range(num_directions)
        )
    else:
        directions = tuple(directions)
        for v in directions:
            if v.ambient != n or v.dim != d:
                raise PreconditionError("supplied direction has wrong shape")
    pairs = _pair_sample(cloud.size, seed, max_pairs, workers)
    estimates = np.empty(len(directions))
    stderrs = np.empty(len(directions))
    for lo in range(0, len(directions), _DIRECTION_BLOCK):
        views, schedules, failed = [], [], None
        for j, v in enumerate(directions[lo : lo + _DIRECTION_BLOCK], start=lo):
            # projected as project_cloud does it, one direction at a time
            x = cloud.points @ v.basis.T
            try:
                schedule = _projection_schedule(
                    x, cloud.truncation_error, predicted, max_pairs
                )
                # a projection keeps the cloud's truncation floor
                schedule.check_floor(cloud)
            except (PreconditionError, EstimationError) as exc:
                failed = (j, exc)
                break
            views.append(x)
            schedules.append(schedule)
        radii = [schedule.radii for schedule in schedules]
        profiles = _pair_profile(cloud, radii, (), pairs, workers, views) if views else []
        # the fits of the directions before a failed one come first, so the
        # error raised is always that of the first failing direction
        for j, (schedule, profile) in enumerate(zip(schedules, profiles), start=lo):
            try:
                est = _correlation_fit(schedule, *profile[:2])
            except (PreconditionError, EstimationError) as exc:
                raise _direction_error(j, exc) from exc
            estimates[j] = est.value
            stderrs[j] = est.stderr
        if failed is not None:
            raise _direction_error(*failed) from failed[1]
    within = np.abs(estimates - predicted) <= tol
    below = estimates < predicted - tol
    qs = np.quantile(estimates, [0.05, 0.25, 0.5, 0.75, 0.95])
    return MarstrandReport(
        estimates=freeze(estimates),
        stderrs=freeze(stderrs),
        predicted=predicted,
        tolerance=float(tol),
        fraction_within=float(within.mean()),
        below=freeze(below),
        quantiles=freeze(qs),
        directions=directions,
    )


@dataclass(frozen=True)
class EDEReport:
    """Certified separation of one coded point from enemy cylinders.

    dist_lower[i] underestimates the true distance from the coded point
    to the union of all other depth-n cylinder images (enclosure-ball
    bound minus projection truncation); diam[i] is the adapted diameter
    of the point's own cylinder, AdaptedMetric.weight of the word's first
    n symbols times the enclosure diameter, bit for bit: the word's psi
    from _prefix_maps, one running product for every depth.  The witness
    constant comes from the level-1 enclosure gap, normalized so the
    coarsest requested depth passes whenever that gap is positive; freezing
    it makes the deeper verdicts falsifiable.  expansions counts the
    cylinder nodes the search built, m per expanded node, counted before
    they are built; partial is set when the enumeration budget ran out
    before the deepest requested depth, and depths then lists only the
    depths finished.
    """

    constant: float
    depths: np.ndarray
    dist_lower: np.ndarray
    diam: np.ndarray
    passed: np.ndarray
    worst_exponent: float
    truncation: float
    partial: bool
    overlap_suspected: bool
    expansions: int

    @property
    def all_passed(self):
        return bool(self.passed.all()) and not self.partial


def _child_block(ifs, x, c, psi, amats):
    """The m children of the first K = len(c) nodes (c, psi, amats), with bounds.

    psi and amats are maps as _prefix_maps gives them.  The block is
    (centers c[k] + A_k steps[s] (K, m, n), ratios psi (K, m), the parents'
    maps or None); child (k, s) takes the map amats[k] @ linear[s] when it
    is itself expanded.  Bounds are |x - center| - psi * radius, (K, m).
    """
    centers = c[:, None, :] + _apply_maps(psi, amats, ifs.steps[None], len(c))
    psis = psi[: len(c), None] * ifs.ratios
    bounds = _norms(x - centers) - psis * ifs.radius
    return (centers, psis, amats), bounds


def _enemy_distance_bounds(ifs, word, x, psi, amats, depths, budget, spent):
    """Min over enemy depth-n cylinders of |x - center| - radius, per n in depths.

    One best-first branch and bound (Land-Doig) over the cylinder tree
    serves every depth.  The heap holds the unexpanded nodes off the
    excluded word's path, each keyed by the gap from x to its enclosure
    ball, nearest first.  Moving to depth n walks the path down to level
    n, pushing the m - 1 siblings met on the way; then the nearest node is
    expanded until a level-n node is on top.  A node bound never exceeds
    any bound in its subtree (nested enclosures), so that node's bound is
    the minimum; it stays on the heap for deeper depths.  spent counts
    nodes built, m per expansion, checked before the expansion: the heap
    keeps what it builds, so the budget also bounds its memory.

    The path and all its children, down to the deepest level the depths
    and the budget allow, are built in one pass: psi and amats are the
    word's prefix maps as _prefix_maps gives them, read only up to that
    level, and the path centers a running sum of the steps taken.  A heap
    entry is (bound, depth, order, block, k, s), child (k, s) of a block
    of siblings that holds no arrays of its own; an expanded node builds
    its m children as one block.  Every center is its parent's plus A
    steps[s], and every map its parent's A @ linear[s].
    """
    m = ifs.m
    sym = np.array(word[: min(depths[-1], budget // m)], dtype=np.intp)
    skips = sym.tolist()
    taken = _apply_maps(psi, amats, ifs.steps[sym])
    path = np.add.accumulate(np.concatenate((ifs.center[None], taken)))
    path_block, path_bounds = _child_block(ifs, x, path[:-1], psi, amats)
    heap = []
    # equal bounds pop in push order, so blocks themselves never compare
    order = itertools.count()
    level = 0
    for n in depths:
        while level < n or heap[0][1] < n:
            if spent[0] + m > budget:
                raise BudgetExceededError(
                    f"separation search exceeded the enumeration budget ({budget})"
                )
            spent[0] += m
            if level < n:
                depth = k = level
                block, bounds, skip = path_block, path_bounds[k], skips[k]
                level += 1
            else:
                _, depth, _, (centers, psis, maps), k, s = heapq.heappop(heap)
                node_c, node_psi = centers[k, s : s + 1], psis[k, s : s + 1]
                node_map = None if maps is None else (maps[k] @ ifs.linear[s])[None]
                block, (bounds,) = _child_block(ifs, x, node_c, node_psi, node_map)
                k, skip = 0, None
            for s, bound in enumerate(bounds.tolist()):
                if s != skip:
                    heapq.heappush(heap, (bound, depth + 1, next(order), block, k, s))
        yield heap[0][0]


def ede_check(ifs, word, depth_range, epsilon, tol):
    """Exponential-separation verdicts along one symbolic point.

    For each depth n the true distance from the coded point to every
    other depth-n cylinder image is bounded below and compared with
    C * diam^(1+epsilon).  The witness C is the level-1 enclosure gap
    over the full diameter, rescaled so the coarsest requested depth
    passes whenever that gap is positive; under strong separation the
    gap propagates into every deeper cylinder by self-similarity, so a
    deep failure is real evidence against exponential separation.
    Bounds are one-sided-safe: truncation error is subtracted.
    """
    word = as_word(word, ifs.m)
    # an increasing range is sorted and distinct already, and listing a
    # huge one before the word-length check would fill memory
    if isinstance(depth_range, range) and depth_range.step > 0:
        depths = depth_range
    else:
        depths = sorted({_integer(n, "depth") for n in depth_range})
    if not depths:
        raise PreconditionError("depth range is empty: its first depth exceeds its last")
    if depths[0] < 1:
        raise PreconditionError("depths must be positive integers")
    if not (epsilon >= 0 and math.isfinite(epsilon)):
        raise PreconditionError("epsilon must be finite and nonnegative")
    if depths[-1] > len(word):
        raise PreconditionError(
            f"word has {len(word)} symbols; deepest requested depth is {depths[-1]}"
        )
    if ifs.radius == 0.0:
        raise PreconditionError("the attractor is one point (enclosure radius 0)")
    if not (tol > 0):
        raise PreconditionError("tolerance must be positive")
    sym = np.array(word, dtype=np.intp)
    x, trunc, maps = _natural_projection(ifs, sym, tol)
    spent = [0]
    dist_lower = []
    done = []
    partial = False
    bounds = _enemy_distance_bounds(ifs, word, x, *maps, depths, enumeration_budget(), spent)
    try:
        for n, bound in zip(depths, bounds):
            dist_lower.append(bound - trunc)
            done.append(n)
    except BudgetExceededError:
        partial = True
    if not done:
        raise BudgetExceededError("budget exhausted before the coarsest requested depth")
    dist_lower = np.array(dist_lower)
    diam = maps[0][done] * 2.0 * ifs.radius
    with np.errstate(all="ignore"):
        constant = max(ifs._witness_gap, 0.0) / (2.0 * ifs.radius) / diam[0] ** epsilon
    if not math.isfinite(constant):
        raise PreconditionError(
            f"witness constant {constant} is not finite: diam ** {epsilon:g} underflows"
        )
    if constant > 0:
        passed = dist_lower >= constant * diam ** (1.0 + epsilon) * (1.0 - 1e-12)
    else:
        # separation needs a positive witness constant; none exists here
        passed = np.zeros(dist_lower.size, dtype=bool)
    fine = diam < 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        expo = np.where(
            dist_lower > 0, np.log(np.maximum(dist_lower, 1e-300)), -np.inf
        ) / np.log(diam)
    expo = np.where(dist_lower > 0, expo, math.inf)
    worst = float(np.max(expo[fine])) if fine.any() else math.nan
    overlap = bool(np.all(dist_lower <= trunc))
    return EDEReport(
        constant=float(constant),
        depths=np.array(done),
        dist_lower=freeze(dist_lower),
        diam=freeze(diam),
        passed=freeze(passed),
        worst_exponent=worst,
        truncation=trunc,
        partial=partial,
        overlap_suspected=overlap,
        expansions=spent[0],
    )


@dataclass(frozen=True)
class HolderReport:
    """Empirical Holder-inverse constants per exponent and enemy depth.

    worst[a, d] is the largest adapted-distance over euclidean-gap^alpha
    ratio found by the adversarial partner search among cylinders that
    are enemies of the base word at depth depths[d].  Pairs whose
    projections coincide within truncation are skipped and counted:
    skips growing with depth are overlap evidence.
    """

    alphas: np.ndarray
    depths: np.ndarray
    worst: np.ndarray
    overall: np.ndarray
    skipped: np.ndarray
    pairs: np.ndarray
    word_length: int
    truncation: float

    def stabilized(self):
        """Per-alpha flag: deep-half worst constant within twice the shallow."""
        half = self.depths.size // 2
        shallow = self.worst[:, :half].max(axis=1)
        deep = self.worst[:, half:].max(axis=1)
        return (deep <= 2.0 * shallow) & np.isfinite(deep)


def _norms(v):
    """Euclidean norms over the last axis of v.

    Each norm is the square root of one BLAS dot of its vector, which is
    what np.linalg.norm computes for a single vector, so a batched norm
    keeps the bits of the one-vector call; a summed square need not.
    """
    return np.sqrt(np.matmul(v[..., None, :], v[..., None])[..., 0, 0])


def _greedy_enemy_leaves(ifs, base, x, max_depth):
    """Leaf words leaving each base path at levels 1..max_depth, descending to x.

    Row (i, d) of the result follows base[i] up to level d - 2, takes the
    nearest other child at level d - 1, then always the child whose
    enclosure ball sits closest to x[i], the first one on ties.  All rows
    descend together, one tree level per step.  Purely deterministic;
    gives an empirical (not certified) nearest enemy for the Holder ratio.
    Each level's children come from the separation search's _child_block,
    so a straight system carries no map.  Returns symbols of shape (count,
    max_depth, length) for base words of shape (count, length).
    """
    count, length = base.shape
    n = ifs.ambient_dim
    rows = count * max_depth
    words = np.repeat(base, max_depth, axis=0)
    target = np.repeat(x, max_depth, axis=0)[:, None, :]
    deviate = np.tile(np.arange(max_depth), count)
    every = np.arange(rows)
    c = np.broadcast_to(ifs.center, (rows, n))
    psi = np.ones(rows)
    amat = None if ifs._straight else np.broadcast_to(np.eye(n), (rows, n, n))
    leaves = np.empty((rows, length), dtype=np.int64)
    for j in range(length):
        (cand, psis, _), val = _child_block(ifs, target, c, psi, amat)
        at = deviate == j
        val[every[at], words[at, j]] = math.inf
        sym = np.where(deviate > j, words[:, j], np.argmin(val, axis=1))
        leaves[:, j] = sym
        c, psi = cand[every, sym], psis[every, sym]
        if amat is not None:
            amat = np.matmul(amat, ifs.linear[sym])
    return leaves.reshape(count, max_depth, length)


def holder_inverse_check(
    ifs, measure, alphas, pair_samples, seed, max_depth=None, base_words=None
):
    """Worst empirical constants in rho(w, t) <= C |Pi(w) - Pi(t)|^alpha.

    Base words are sampled from the measure (or supplied); for each depth
    the adversarial partner is the greedy nearest leaf among all enemy
    cylinders of that depth, so the ratio probes every separation scale.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if not np.all((alphas > 0.0) & (alphas < 1.0)):
        raise PreconditionError("Holder exponents must lie strictly in (0, 1)")
    if measure.m != ifs.m:
        raise AlphabetMismatchError(
            f"measure alphabet {measure.m} != system alphabet {ifs.m}"
        )
    length = max(4, math.ceil(-12.0 * math.log(10.0) / math.log(ifs.metric.gamma)))
    if base_words is None:
        pair_samples = _integer(pair_samples, "base sample count")
        if pair_samples < 1:
            raise PreconditionError("need at least one base sample")
        check_budget(pair_samples * length, "Holder base sample")
        rng_base = substream(seed, _STREAM_BASE_WORDS)
        base = measure.sample_batch(pair_samples, length, rng_base)
    else:
        words = [as_word(w, ifs.m) for w in base_words]
        if not words or len({len(w) for w in words}) > 1 or len(words[0]) < 4:
            raise PreconditionError("base words must share a length of at least 4")
        base = np.array(words, dtype=np.int64)
        length = base.shape[1]
    max_depth = length // 2 if max_depth is None else _integer(max_depth, "enemy depth")
    if not 1 <= max_depth < length:
        raise PreconditionError("enemy depth must sit inside the word length")
    x_base = _project_batch(ifs, base)
    base_psi = _prefix_weights(ifs, base)
    trunc = float(np.max(base_psi[:, -1])) * ifs.radius
    n_base = base.shape[0]
    worst = np.zeros((alphas.size, max_depth))
    skipped = np.zeros(max_depth, dtype=np.int64)
    pairs = np.full(max_depth, n_base, dtype=np.int64)
    tiny = 1e-300
    for lo in range(0, n_base, _HOLDER_BLOCK):
        block = base[lo : lo + _HOLDER_BLOCK]
        x = x_base[lo : lo + _HOLDER_BLOCK]
        leaves = _greedy_enemy_leaves(ifs, block, x, max_depth).reshape(-1, length)
        y = _project_batch(ifs, leaves).reshape(-1, max_depth, ifs.ambient_dim)
        e_leaf = _prefix_weights(ifs, leaves)[:, -1].reshape(-1, max_depth) * ifs.radius
        gap = _norms(x[:, None, :] - y)
        # rho at depth d is the weight of the first d - 1 symbols
        rho = base_psi[lo : lo + _HOLDER_BLOCK, :max_depth]
        e_base = base_psi[lo : lo + _HOLDER_BLOCK, -1] * ifs.radius
        # a partner deviating at level j <= d is an enemy at depth d, so the
        # per-depth ratio accumulates over deviation levels; once a partner
        # coincides with the base point, every deeper depth counts a skip
        hit = gap <= e_base[:, None] + e_leaf + 1e-15
        skipped += np.logical_or.accumulate(hit, axis=1).sum(axis=0)
        ratio = rho[..., None] / np.maximum(gap, tiny)[..., None] ** alphas
        ratio[hit] = 0.0
        running = np.maximum.accumulate(ratio, axis=1)
        worst = np.maximum(worst, running.max(axis=0).T)
    overall = worst.max(axis=1)
    out = [freeze(a) for a in (alphas, np.arange(1, max_depth + 1), worst, overall, skipped, pairs)]
    return HolderReport(
        alphas=out[0],
        depths=out[1],
        worst=out[2],
        overall=out[3],
        skipped=out[4],
        pairs=out[5],
        word_length=length,
        truncation=float(trunc),
    )
