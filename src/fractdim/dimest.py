"""Empirical dimension estimators over point clouds.

Correlation dimension, s-energy with a divergence detector, box
counting, the coarse multifractal spectrum, and the exact symbolic
bound on relative dimension.  All estimators are deterministic in
(cloud, schedule, seed) and reproducible for any worker count:
randomness flows through per-stratum substreams and reductions are
associative sums combined in stratum order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, EstimationError, PreconditionError
from .measures import relative_entropy
from .runtime import check_budget, freeze, run_chunks, substream

_MAX_PAIRS = 10**7
_MIN_PAIR_POINTS = 1000
_MIN_BOXES = 100
_RESOLUTION_FACTOR = 10.0
# substream tags, one per consumer of randomness
_STREAM_PAIRS = 71


def _lattice_ids(k):
    """Row-major ids of integer lattice cells k, shifted to start at zero.

    Returns (ids, k_min, dims, strides); raises when the id space would
    reach 2^62, which keeps every id and product exact in int64.
    """
    k_min = k.min(axis=0)
    k = k - k_min
    dims = k.max(axis=0) + 1
    if int(np.prod(dims.astype(object))) >= 2**62:
        raise PreconditionError("grid too fine for the cloud's spread")
    strides = np.ones_like(dims)
    strides[:-1] = np.cumprod(dims[::-1])[-2::-1]
    return k @ strides, k_min, dims, strides


def _lattice_cells(points, cell):
    """Absolute lattice index floor(x / cell) of every point."""
    if not (cell > 0 and math.isfinite(cell)):
        raise PreconditionError("cell size must be positive and finite")
    return np.floor(points / cell).astype(np.int64)


class _GridIndex:
    """Sort-based reference for the lattice paths, anchored at cell multiples.

    No estimator builds one: tests check box_counting and _box_masses
    against its cells, and the benchmark tracer times its construction.
    """

    def __init__(self, points, cell):
        ids, self.k_min, _, _ = _lattice_ids(_lattice_cells(points, float(cell)))
        self.order = np.argsort(ids, kind="stable")
        self.sorted_ids = ids[self.order]
        # ids are sorted, so a cell starts wherever the id changes
        new_cell = np.flatnonzero(self.sorted_ids[1:] != self.sorted_ids[:-1]) + 1
        self.cell_starts = np.concatenate(([0], new_cell))
        self.cell_ids = self.sorted_ids[self.cell_starts]

    @property
    def occupied(self):
        return self.cell_ids.size


@dataclass(frozen=True)
class PointCloud:
    """Uniform empirical measure: N points, each of mass 1/N.

    Every pair of points then has the same mass, so the pair estimators
    count pairs, and box masses are point counts over N.

    truncation_error is the certified bound on how far each point may sit
    from its ideal position (0 for exactly placed clouds); estimators
    refuse radius schedules that probe below 10x this floor.
    """

    points: np.ndarray
    truncation_error: float = 0.0

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise PreconditionError("points must be a nonempty (N, n) array")
        if not np.all(np.isfinite(pts)):
            raise PreconditionError("points must be finite")
        if not (self.truncation_error >= 0):
            raise PreconditionError("truncation error must be nonnegative")
        object.__setattr__(self, "points", freeze(pts))

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def ambient_dim(self):
        return self.points.shape[1]


def _dyadic_radii(r0, levels):
    """Radii r0 * 2^-j for j = 0..levels; the finest must not underflow to 0."""
    if not (r0 > 0 and math.isfinite(r0)):
        raise PreconditionError("top radius must be positive and finite")
    if r0 * 0.5 ** max(levels, 0) == 0:
        raise PreconditionError(f"finest radius r0 * 2^-{levels} underflows to 0")
    return r0 * 0.5 ** np.arange(levels + 1)


@dataclass(frozen=True)
class RadiusSchedule:
    """Dyadic radii r0 * 2^-j for j = 0..levels, with an OLS fit window.

    The window [fit_lo, fit_hi] (inclusive, in j) must span at least four
    scales; no automatic window search is ever performed.
    """

    r0: float
    levels: int
    fit_lo: int
    fit_hi: int

    def __post_init__(self):
        _dyadic_radii(self.r0, self.levels)
        if not 0 <= self.fit_lo < self.fit_hi <= self.levels:
            raise PreconditionError("fit window must sit inside the schedule")
        if self.fit_hi - self.fit_lo + 1 < 4:
            raise PreconditionError("fit window must contain at least 4 scales")

    @property
    def radii(self):
        return _dyadic_radii(self.r0, self.levels)

    @property
    def fit_slice(self):
        return slice(self.fit_lo, self.fit_hi + 1)

    def check_floor(self, cloud):
        floor = _RESOLUTION_FACTOR * cloud.truncation_error
        if self.radii[-1] < floor:
            raise PreconditionError(
                "schedule probes below the truncation floor "
                f"({self.radii[-1]:.3g} < {floor:.3g})"
            )


@dataclass(frozen=True)
class FitEstimate:
    """OLS slope with its standard error and the fitted profile."""

    value: float
    stderr: float
    radii: np.ndarray
    profile: np.ndarray


def _linear_fit(x, y):
    """Least-squares slope of y on x and the slope's standard error.

    The formulas of scipy.stats.linregress (population moments from
    np.cov, the error from the correlation coefficient), so both give the
    same numbers; x must not be constant, and a constant y has error 0.
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    slope = ssxym / ssxm
    if len(x) == 2 or ssym == 0.0:
        return float(slope), 0.0
    r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    return float(slope), float(np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2)))


def _ols(logx, logy):
    if np.allclose(logy, logy[0], atol=1e-12):
        return 0.0, 0.0
    return _linear_fit(logx, logy)


_ENERGY_CUTS = (8, 4, 2, 1)


def _pair_sample(n, seed, max_pairs):
    """Deterministic stratified pair sample over an n-point cloud.

    Stratum t pairs point i with entry i of a substream(seed, t)
    permutation, so each point appears equally often; strata are
    truncated to respect max_pairs and self-pairs are dropped.  The
    sample depends on (n, seed, max_pairs) only, so one draw serves every
    cloud of that size, such as all projections of one sample.  Returns
    one (a, b) pair of index arrays per stratum, views of one buffer that
    is allocated before any stratum is drawn; a sample too large to
    allocate raises BudgetExceededError.
    """
    if n < _MIN_PAIR_POINTS:
        raise PreconditionError(f"need at least {_MIN_PAIR_POINTS} points")
    if max_pairs < 1:
        raise PreconditionError("pair budget must be at least 1")
    n_strata = max(1, min(max_pairs // n, n - 1))
    per_stratum = min(n, max_pairs)
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    try:
        buf = np.empty((2, n_strata * per_stratum), dtype=index)
    except (MemoryError, ValueError):
        raise BudgetExceededError(
            f"a sample of {n_strata * per_stratum} pairs cannot be allocated"
        ) from None
    left = np.arange(per_stratum, dtype=index)
    pairs = []
    end = 0
    for t in range(n_strata):
        partner = substream(seed, _STREAM_PAIRS, t).permutation(n)[:per_stratum]
        keep = partner != left
        a, b = buf[:, end : end + np.count_nonzero(keep)]
        a[...], b[...] = left[keep], partner[keep]
        end += a.size
        pairs.append((a, b))
    return pairs


def _pair_profile(cloud, radii, powers, pairs, workers, views):
    """Correlation/energy pair counts over a fixed pair sample, one per view.

    A view is an (N, d) coordinate array of the cloud's points, such as
    the cloud's own points or one projection of them; radii[j] is view j's
    schedule.  The cloud's uniform measure gives every pair the same mass,
    so pairs are counted and consumers divide counts; the cloud itself is
    not read, and stays the first argument because the benchmark tracer
    takes the cloud's size from it.  A stratum's indices and segment edges
    are made once for all views; each view only gathers, bins and sums.
    Strata are the parallel unit and are combined in stratum order, so the
    sums do not depend on the worker count or on how views are grouped.

    Each stratum's pairs split into the disjoint segments [0, c/8),
    [c/8, c/4), [c/4, c/2) and [c/2, c).  Every pair is binned once by the
    number of (descending) radii below its distance, so d <= r stays the
    exact test.  Cumulative sums over the segments give the nested cuts at
    an eighth, a quarter, half, and all of the stratum, which the
    divergence detector compares.  A profile is one tuple (pairs, hits per
    radius, zero-distance pairs, energy sums over the nonzero distances)
    per cut, cumulative, the last covering the full sample.  Counts are
    held in float64, exact far beyond any pair budget.
    """
    views = [[np.ascontiguousarray(c) for c in v.T] for v in views]
    radii = [np.asarray(r, dtype=float) for r in radii]

    def segment(d, radii):
        hits = ()
        if radii.size:
            below = np.zeros(d.size, dtype=np.min_scalar_type(radii.size))
            for r in radii:
                below += d > r
            # d <= radii[j] iff fewer than radii.size - j radii lie below d
            hits = np.cumsum(np.bincount(below, minlength=radii.size + 1))[-2::-1]
        zero = d.size - np.count_nonzero(d)
        d_nz = d[d > 0] if zero else d
        # empirical_energy reports a sum that overflows to inf
        with np.errstate(over="ignore"):
            energies = [np.sum(d_nz ** -s) for s in powers]
        return [d.size, *hits, zero, *energies]

    def stratum(t, start, stop):
        a, b = (i.astype(np.intp, copy=False) for i in pairs[t])
        edges = [0] + [a.size // c for c in _ENERGY_CUTS]
        profiles = []
        for cols, r in zip(views, radii):
            # coordinate-wise accumulation, in place: the same rounding as
            # a row sum for ambient dimension below 8
            d = np.zeros(a.size)
            for c in cols:
                step = c[a]
                step -= c[b]
                step *= step
                d += step
            np.sqrt(d, out=d)
            rows = [segment(d[lo:hi], r) for lo, hi in zip(edges, edges[1:])]
            profiles.append(np.cumsum(rows, axis=0, dtype=float))
        return profiles

    results = run_chunks(stratum, len(pairs), workers=workers, chunk=1)
    out = []
    for j, r in enumerate(radii):
        sums = results[0][j].copy()
        for per_view in results[1:]:
            sums += per_view[j]
        h = r.size
        out.append(tuple(
            (row[0], row[1 : 1 + h], row[1 + h], row[2 + h :]) for row in sums
        ))
    return out


def _correlation_fit(schedule, total, hits):
    """Correlation-sum slope from a pair profile's full-sample cut."""
    radii = schedule.radii
    corr = hits / total
    win = schedule.fit_slice
    if np.min(corr[win]) <= 0:
        raise EstimationError("no pairs resolved at some fitted scale")
    if np.allclose(corr, 1.0, atol=1e-15):
        # all sampled pairs coincide: a single atom has dimension 0
        return FitEstimate(0.0, 0.0, freeze(radii), freeze(corr))
    slope, err = _ols(np.log(radii[win]), np.log(corr[win]))
    return FitEstimate(slope, err, freeze(radii), freeze(corr))


def correlation_dimension(cloud, schedule, seed=0, max_pairs=_MAX_PAIRS, workers=1):
    """Slope of the correlation sum log C(r) against log r.

    C(r) is the fraction of sampled point pairs within distance r; pairs
    are drawn by the deterministic stratified scheme of _pair_sample, and
    strata run in parallel.
    """
    pairs = _pair_sample(cloud.size, seed, max_pairs)
    schedule.check_floor(cloud)
    (profile,) = _pair_profile(cloud, [schedule.radii], (), pairs, workers, [cloud.points])
    total, hits = profile[-1][:2]
    return _correlation_fit(schedule, total, hits)


@dataclass(frozen=True)
class EnergyEstimate:
    """Empirical s-energy with the doubling-stability divergence flag.

    zero_pair_weight is the fraction of sampled pairs at distance 0,
    which the energy mean leaves out.
    """

    value: float
    diverged: bool
    half_value: float
    zero_pair_weight: float
    s: float


def empirical_energy(cloud, s, seed=0, max_pairs=_MAX_PAIRS, workers=1):
    """Mean of |x - y|^-s over sampled pairs, zero distances excluded.

    The divergence flag fires when the running mean fails to stabilize:
    it is tracked at an eighth, a quarter, half, and all of the pair
    budget (nested cuts of one pass over the sample), and any doubling
    that moves it by more than 10 percent fires.  A finite energy
    settles; a divergent one keeps shifting through new extreme summands.
    """
    if not (0 <= s < math.inf):
        raise PreconditionError(
            f"energy exponent must be finite and nonnegative, got {s}"
        )
    pairs = _pair_sample(cloud.size, seed, max_pairs)
    (blocks,) = _pair_profile(cloud, [()], (s,), pairs, workers, [cloud.points])

    def mean(block):
        total, _, zero, energies = block
        return energies[0] / (total - zero) if total > zero else math.inf

    running = [mean(b) for b in blocks]
    total, _, zero, _ = blocks[-1]
    if total == zero:
        raise EstimationError("all sampled pairs coincide; energy undefined")
    if not math.isfinite(running[-1]):
        raise EstimationError(f"the {s}-energy of the sampled pairs overflows float64")
    diverged = any(
        math.isinf(a) or abs(b - a) > 0.1 * abs(b)
        for a, b in zip(running, running[1:])
    )
    return EnergyEstimate(
        value=float(running[-1]),
        diverged=bool(diverged),
        half_value=float(running[-2]),
        zero_pair_weight=float(zero / total),
        s=float(s),
    )


def _dyadic_box_counts(points, finest, levels):
    """Occupied boxes of side finest * 2^s for s = 0..levels, finest first.

    Dividing by a power of two is exact, so floor(x / (c * 2^s)) is the
    finest index floor(x / c) shifted right by s.  The finest cells are
    sorted once; each coarser level shifts the previous level's distinct
    cells by one and counts the distinct results.
    """
    ids, k_min, dims, strides = _lattice_ids(_lattice_cells(points, finest))
    ids = np.unique(ids)
    counts = [ids.size]
    for _ in range(levels):
        # absolute indices: shifting min-relative ones would move box edges
        cells = (ids[:, None] // strides % dims + k_min) >> 1
        ids, k_min, dims, strides = _lattice_ids(cells)
        ids = np.unique(ids)
        counts.append(ids.size)
    return counts


def box_counting(cloud, schedule):
    """Slope of log N(r) against log(1/r), N(r) = occupied boxes of side r.

    The schedule radii are r0 * 2^-j exactly, so every count comes from one
    sort of the finest lattice (_dyadic_box_counts); the counts equal those
    of a grid built at each radius, and no grid is cached on the cloud.
    """
    schedule.check_floor(cloud)
    radii = schedule.radii
    counts = _dyadic_box_counts(cloud.points, float(radii[-1]), schedule.levels)
    counts = np.array(counts[::-1], dtype=float)
    win = schedule.fit_slice
    slope, err = _ols(np.log(1.0 / radii[win]), np.log(counts[win]))
    return FitEstimate(slope, err, freeze(radii), freeze(counts))


@dataclass(frozen=True)
class CoarseSpectrum:
    """Histogram spectrum at one scale: f(a) from box-mass exponents.

    f(a) = log #{boxes with log-mass exponent within delta of a} / log(1/r);
    only bins with at least one box appear.
    """

    alpha: np.ndarray
    f: np.ndarray
    peak_alpha: float
    peak_f: float
    r: float
    delta: float
    occupied: int


def _box_masses(cloud, r):
    """Positive masses of the lattice boxes of side r, in box-id order."""
    ids, _, dims, _ = _lattice_ids(_lattice_cells(cloud.points, r))
    if np.prod(dims) > ids.size:
        # more cells than points: bin by the rank of each occupied cell
        ids = np.unique(ids, return_inverse=True)[1]
    masses = np.bincount(ids) / cloud.size
    return masses[masses > 0]


def coarse_spectrum(cloud, r, delta=0.05):
    """Coarse multifractal spectrum from box masses at scale r."""
    if not (0 < r < 1):
        raise PreconditionError("scale r must lie in (0, 1)")
    if not (delta > 0 and math.isfinite(delta)):
        raise PreconditionError("window half-width delta must be positive and finite")
    masses = _box_masses(cloud, r)
    if masses.size < _MIN_BOXES:
        raise EstimationError(
            f"only {masses.size} occupied boxes; need {_MIN_BOXES}"
        )
    exponents = np.log(masses) / math.log(r)
    step = delta / 5.0
    # the bin count is refused before floor() or arange() meets it
    bins = float(exponents.max() - exponents.min()) / step
    check_budget(int(bins) + 1 if math.isfinite(bins) else bins, "coarse spectrum bins")
    lo = math.floor(exponents.min() / step) * step
    hi = math.ceil(exponents.max() / step) * step
    centers = np.arange(lo, hi + step / 2, step)
    sorted_exp = np.sort(exponents)
    counts = np.searchsorted(sorted_exp, centers + delta, side="right") - np.searchsorted(
        sorted_exp, centers - delta, side="left"
    )
    keep = counts > 0
    centers, counts = centers[keep], counts[keep]
    if centers.size == 0:
        raise EstimationError("no occupied spectrum bins")
    f_hat = np.log(counts) / math.log(1.0 / r)
    top = f_hat >= f_hat.max() - 1e-12
    return CoarseSpectrum(
        alpha=freeze(centers),
        f=freeze(f_hat),
        peak_alpha=float(centers[top].mean()),
        peak_f=float(f_hat.max()),
        r=float(r),
        delta=float(delta),
        occupied=int(masses.size),
    )


def relative_dimension_bound(mu, nu, gamma):
    """Exact symbolic bound h(mu || nu) / (-log gamma) on relative dimension."""
    if not (0 < gamma < 1):
        raise PreconditionError("metric ratio gamma must lie in (0, 1)")
    return relative_entropy(mu, nu) / (-math.log(gamma))
