"""Empirical dimension estimators over point clouds.

Correlation dimension, s-energy with a divergence detector, box
counting, the coarse multifractal spectrum, and the exact symbolic
bound on relative dimension.  All estimators are deterministic in
(cloud, schedule, seed) and reproducible for any worker count:
randomness flows through per-stratum substreams and reductions are
associative sums combined in stratum order.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, EstimationError, PreconditionError
from .measures import relative_entropy
from .runtime import check_budget, freeze, run_chunks, substream

_MAX_PAIRS = 10**7
# pair budget of a config run and of marstrand_experiment
_RUN_PAIRS = 2_000_000
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


def _check_lattice_reach(cell, points, radius=0.0):
    """Refuse a cell size whose lattice indices floor(x / cell) reach 2**62.

    x ranges over the rows of points and, with a radius, over the balls
    of that radius about them: an IFS's enclosure ball holds every point
    of its clouds, so a scale can be refused before any is sampled.  The
    int64 cast would wrap indices past 2**63.
    """
    reach = (float(np.abs(points).max()) + radius) / cell
    if not reach < 2**62:
        raise PreconditionError(
            f"cell size {cell:g} is too fine for the cloud: lattice indices "
            f"reach {reach:.3g}, past 2**62"
        )


def _lattice_cells(points, cell):
    """Absolute lattice index floor(x / cell) of every point."""
    if not (cell > 0 and math.isfinite(cell)):
        raise PreconditionError("cell size must be positive and finite")
    _check_lattice_reach(cell, points)
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
        self._adopt(np.array(self.points, dtype=float))

    @classmethod
    def _own(cls, points, truncation_error=0.0):
        """A cloud that takes ownership of a float array, without a copy.

        For an array the library has just filled, such as sample_points'
        buffer; the array is frozen, so its maker must not write to it
        afterwards.  Arrays passed to the constructor are copied instead.
        """
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "truncation_error", truncation_error)
        cloud._adopt(points)
        return cloud

    def _adopt(self, pts):
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
    """Radii r0 * 2^-j for j = 0..levels, exact: the finest must be normal.

    A normal radius is r0 * 2^-j exactly and its bit pattern is
    bits(r0) - (j << 52), which _radii_below bins distances by.
    """
    if not (r0 > 0 and math.isfinite(r0)):
        raise PreconditionError("top radius must be positive and finite")
    # ldexp, not r0 * 0.5**levels: 0.5**levels is 0 past 1074 levels
    finest = math.ldexp(r0, -max(levels, 0))
    if finest == 0:
        raise PreconditionError(f"finest radius r0 * 2^-{levels} underflows to 0")
    if finest < np.finfo(float).tiny:
        raise PreconditionError(
            f"finest radius r0 * 2^-{levels} = {finest:.3g} is subnormal"
        )
    return np.ldexp(r0, -np.arange(levels + 1))


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


def _pair_sample(n, seed, max_pairs, workers=1):
    """Deterministic stratified pair sample over an n-point cloud.

    Stratum t pairs point i with entry i of a substream(seed, t)
    permutation, so each point appears equally often; strata are
    truncated to respect max_pairs and self-pairs are dropped.  The
    sample depends on (n, seed, max_pairs) only, so one draw serves every
    cloud of that size, such as all projections of one sample.  Returns
    one (partner, self_pairs) per stratum: partner is row t of one
    (strata, per_stratum) intp buffer, whose left column is the implicit
    arange(per_stratum), and self_pairs the sorted positions i with
    partner[i] == i.  The buffer is allocated before any stratum is drawn;
    a sample too large to allocate raises BudgetExceededError, and a
    sample that keeps no pair (a budget of one self-pair) raises
    EstimationError.  Strata are drawn in parallel, each into its own row,
    so the sample is the same for any worker count.
    """
    if n < _MIN_PAIR_POINTS:
        raise PreconditionError(f"need at least {_MIN_PAIR_POINTS} points")
    if max_pairs < 1:
        raise PreconditionError("pair budget must be at least 1")
    n_strata = max(1, min(max_pairs // n, n - 1))
    per_stratum = min(n, max_pairs)
    try:
        buf = np.empty((n_strata, per_stratum), dtype=np.intp)
    except (MemoryError, ValueError):
        raise BudgetExceededError(
            f"a sample of {n_strata * per_stratum} pairs cannot be allocated"
        ) from None
    left = np.arange(per_stratum)

    def draw(t, start, stop):
        partner = buf[t]
        partner[...] = substream(seed, _STREAM_PAIRS, t).permutation(n)[:per_stratum]
        return partner, np.flatnonzero(partner == left)

    pairs = run_chunks(draw, n_strata, workers=workers, chunk=1)
    if all(self_pairs.size == per_stratum for _, self_pairs in pairs):
        raise EstimationError(
            f"a pair budget of {max_pairs} kept no pair: every drawn pair was a self-pair"
        )
    return pairs


def _radii_below(d, radii):
    """How many radii lie below each distance: the sum of d > r over radii.

    radii are _dyadic_radii's r0 * 2^-j for j < L, with a normal finest
    radius, so bits(radii[j]) = bits(radii[-1]) + ((L - 1 - j) << 52); d
    is nonnegative (+0 and inf included).  Nonnegative doubles order as
    their int64 bit patterns do, so d > radii[j] exactly when
    j >= L - 1 - q, q = (bits(d) - bits(radii[-1]) - 1) >> 52, and the
    count is q + 1 clipped to [0, L]: a subtract, a shift and a clip for
    all radii at once.  The counts stay int64, the type bincount reads.
    """
    base = int(radii[-1:].view(np.int64)[0]) - (1 << 52) + 1
    below = d.view(np.int64) - base
    below >>= 52
    np.clip(below, 0, radii.size, out=below)
    return below


def _cut_rows(d, powers):
    """Pairs, zero-distance pairs and energy sums at each _ENERGY_CUTS cut.

    The stratum's distances split into the disjoint segments [0, c/8),
    [c/8, c/4), [c/4, c/2) and [c/2, c); each segment is summed once and
    a cumulative sum gives the nested cuts, the last the whole stratum.
    """
    edges = [0] + [d.size // c for c in _ENERGY_CUTS]
    rows = []
    for lo, hi in itertools.pairwise(edges):
        seg = d[lo:hi]
        zero = seg.size - np.count_nonzero(seg)
        nonzero = seg[seg > 0] if zero else seg
        # empirical_energy reports a sum that overflows to inf
        with np.errstate(over="ignore"):
            rows.append([seg.size, zero, *(np.sum(nonzero ** -s) for s in powers)])
    return np.cumsum(rows, axis=0, dtype=float)


def _pair_profile(cloud, radii, powers, pairs, workers, views):
    """Correlation hits and energy cut rows over a fixed pair sample, per view.

    A view is an (N, d) coordinate array of the cloud's points, such as
    the cloud's own points or one projection of them; radii[j] is view j's
    schedule.  The cloud's uniform measure gives every pair the same mass,
    so pairs are counted and consumers divide counts; the cloud itself is
    not read, and stays the first argument because the benchmark tracer
    takes the cloud's size from it.  Strata are the parallel unit and are
    combined in stratum order, so the results do not depend on the worker
    count or on how views are grouped.

    Per view and stratum: one gather of _pair_sample's partner column,
    subtracted from the view's first k rows, gives the steps of all k
    drawn pairs, each kept pair's with the bits of a packed (a, b) gather.
    A one-coordinate view's distance is |step|, the same bits as
    sqrt(step * step) wherever the square neither overflows nor goes
    subnormal (2^-511 <= |step| < 2^512) and the exact distance outside;
    a wider view sums the squared steps in place, which rounds as a row
    sum does below 8 coordinates, and takes the square root.  With radii,
    one integer pass bins every distance by the number of (descending)
    radii below it, from its float bits (_radii_below, which needs the
    schedule to be _dyadic_radii's, finest radius normal), so d <= r stays
    the exact test; one bincount over the whole stratum counts the bins,
    the only thing the correlation fit reads, less a bincount of the
    self-pairs' own bins (not always bin 0: an inf coordinate gives a NaN
    self-distance).  With powers, _cut_rows adds the rows the energy
    divergence detector compares, over the distances with the self-pairs
    deleted; without powers the segments are never cut, so a
    correlation-only view (every Marstrand direction) pays for none of it.

    Returns one (total, hits, cuts) per view: the sampled pairs, hits[j]
    the pairs within radii[j], and cuts one (pairs, zero-distance pairs,
    energy sums over the nonzero distances) row per cut, cumulative, the
    last covering the full sample; cuts is () without powers.  Counts are
    held in float64, exact far beyond any pair budget.
    """
    views = [[np.ascontiguousarray(c) for c in v.T] for v in views]
    radii = [np.asarray(r, dtype=float) for r in radii]

    def stratum(t, start, stop):
        partner, self_pairs = pairs[t]
        k = partner.size
        profiles = []
        for (first, *rest), r in zip(views, radii):
            d = first.take(partner)
            np.subtract(first[:k], d, out=d)
            if rest:
                # coordinate-wise accumulation, in place: the same rounding
                # as a row sum for ambient dimension below 8
                d *= d
                for c in rest:
                    step = c.take(partner)
                    np.subtract(c[:k], step, out=step)
                    step *= step
                    d += step
                np.sqrt(d, out=d)
            else:
                np.abs(d, out=d)
            bins = cuts = None
            if r.size:
                below = _radii_below(d, r)
                bins = np.bincount(below, minlength=r.size + 1)
                bins -= np.bincount(below[self_pairs], minlength=r.size + 1)
            if powers:
                kept = np.delete(d, self_pairs) if self_pairs.size else d
                cuts = _cut_rows(kept, powers)
            profiles.append((bins, cuts))
        return profiles

    results = run_chunks(stratum, len(pairs), workers=workers, chunk=1)
    total = float(sum(partner.size - self_pairs.size for partner, self_pairs in pairs))
    out = []
    for j, r in enumerate(radii):
        hits = np.zeros(0)
        if r.size:
            bins = sum(per_view[j][0] for per_view in results)
            # d <= radii[j] iff fewer than r.size - j radii lie below d
            hits = np.cumsum(bins, dtype=float)[-2::-1]
        cuts = ()
        if powers:
            # stratum order; 0 + x is x for these nonnegative sums
            sums = sum(per_view[j][1] for per_view in results)
            cuts = tuple((row[0], row[1], row[2:]) for row in sums)
        out.append((total, hits, cuts))
    return out


def _correlation_fit(schedule, total, hits):
    """Correlation-sum slope from a pair profile's total and hits."""
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


def _valid_exponent(s):
    return 0 <= s < math.inf


def _energy_estimates(exponents, cuts):
    """One EnergyEstimate per exponent, each checked as it is read.

    Column i of the cut rows' energy sums is exponent i; the divergence
    flag compares the running means of successive cuts.
    """
    for i, s in enumerate(exponents):
        if not _valid_exponent(s):
            raise PreconditionError(
                f"energy exponent must be finite and nonnegative, got {s}"
            )
        running = [
            energies[i] / (total - zero) if total > zero else math.inf
            for total, zero, energies in cuts
        ]
        total, zero, _ = cuts[-1]
        if total == zero:
            raise EstimationError("all sampled pairs coincide; energy undefined")
        if not math.isfinite(running[-1]):
            raise EstimationError(f"the {s}-energy of the sampled pairs overflows float64")
        diverged = any(
            math.isinf(a) or abs(b - a) > 0.1 * abs(b)
            for a, b in zip(running, running[1:])
        )
        yield EnergyEstimate(
            value=float(running[-1]),
            diverged=bool(diverged),
            half_value=float(running[-2]),
            zero_pair_weight=float(zero / total),
            s=float(s),
        )


def pair_estimates(cloud, schedule=None, exponents=(), seed=0, max_pairs=_MAX_PAIRS,
                   workers=1):
    """Correlation fit and s-energies from one pair sample and one pass.

    The correlation sum and the s-energy are two kernels over the same
    sampled pairs of mu x mu, so one _pair_sample draw and one
    _pair_profile pass serve both.  Returns (fit, energies): fit is the
    correlation FitEstimate over the schedule (None without one), and
    energies yields one EnergyEstimate per exponent, in order.  An energy
    is checked only as it is read, so a caller can report the errors of
    its other estimators first; the pass sums the exponents before the
    first invalid one, and draws nothing when that leaves no work.
    """
    powers = list(itertools.takewhile(_valid_exponent, exponents))
    if schedule is None and not powers:
        return None, _energy_estimates(exponents, ())
    pairs = _pair_sample(cloud.size, seed, max_pairs, workers)
    radii = ()
    if schedule is not None:
        schedule.check_floor(cloud)
        radii = schedule.radii
    ((total, hits, cuts),) = _pair_profile(
        cloud, [radii], powers, pairs, workers, [cloud.points]
    )
    fit = None if schedule is None else _correlation_fit(schedule, total, hits)
    return fit, _energy_estimates(exponents, cuts)


def correlation_dimension(cloud, schedule, seed=0, max_pairs=_MAX_PAIRS, workers=1):
    """Slope of the correlation sum log C(r) against log r.

    C(r) is the fraction of sampled point pairs within distance r; pairs
    are drawn by the deterministic stratified scheme of _pair_sample, and
    strata run in parallel.
    """
    return pair_estimates(cloud, schedule, (), seed, max_pairs, workers)[0]


def empirical_energy(cloud, s, seed=0, max_pairs=_MAX_PAIRS, workers=1):
    """Mean of |x - y|^-s over sampled pairs, zero distances excluded.

    The divergence flag fires when the running mean fails to stabilize:
    it is tracked at an eighth, a quarter, half, and all of the pair
    budget (nested cuts of one pass over the sample), and any doubling
    that moves it by more than 10 percent fires.  A finite energy
    settles; a divergent one keeps shifting through new extreme summands.
    """
    return next(pair_estimates(cloud, None, (s,), seed, max_pairs, workers)[1])


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
        occupied=int(masses.size),
    )


def relative_dimension_bound(mu, nu, gamma):
    """Exact symbolic bound h(mu || nu) / (-log gamma) on relative dimension."""
    if not (0 < gamma < 1):
        raise PreconditionError("metric ratio gamma must lie in (0, 1)")
    return relative_entropy(mu, nu) / (-math.log(gamma))
