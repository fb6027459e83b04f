"""Similarity iterated function systems on R^n.

Maps f_i(x) = lambda_i O_i x + t_i with orthogonal O_i.  Natural
projection with certified truncation error, Lyapunov exponents and
symbolic dimensions of measure models, point-cloud sampling, translation
families, and Monte-Carlo transversality exponents.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dimest import PointCloud, _linear_fit
from .errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    EstimationError,
    PreconditionError,
    WordTooShortError,
)
from .runtime import _integer, check_budget, freeze, run_chunks, substream
from .symbolic import as_word

_ORTHO_TOL = 1e-10
_BALL_SLACK = 1e-12
_STREAM_POINTS = 11
_STREAM_PARAMS = 12
_MIN_FIT_HITS = 50


@dataclass(frozen=True)
class SimilarityIFS:
    """Finitely many contracting similarities sharing an ambient space.

    The bounding ball is grown from the fixed points by the contraction
    bound radius >= max ||f_i(c) - c|| / (1 - lambda_i) and then verified
    invariant, so every f_word(ball) encloses the corresponding cylinder
    of the attractor.  gamma is the largest contraction ratio: a depth-n
    cylinder's enclosure has radius at most gamma**n * radius, which
    certifies every truncation depth.

    A cylinder node is (c, psi, A): the enclosure f_w(ball) has center c
    and radius psi * radius, and A is the linear part of f_w.  The root is
    (center, 1, I), and child s of a node is (c + A steps[s], psi ratios[s],
    A linear[s]), where steps[s] = f_s(center) - center and linear[s] =
    ratios[s] O_s are computed once per system.  `_prefix_maps` gives the
    psi and A of every prefix of a word by that rule, and `_apply_maps`
    applies them.  Kept out of repr and ==: `_straight`, True when every
    O_i is exactly I, and `_witness_gap`, the least gap between two f_i(ball).
    """

    ratios: np.ndarray
    translations: np.ndarray
    orthogonal: np.ndarray = None
    center: np.ndarray = field(init=False)
    radius: float = field(init=False)
    gamma: float = field(init=False)
    steps: np.ndarray = field(init=False)
    linear: np.ndarray = field(init=False)

    def __post_init__(self):
        lam = np.array(self.ratios, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise PreconditionError("need at least two maps")
        if not np.all((lam > 0) & (lam < 1)):
            raise PreconditionError("contraction ratios must lie in (0, 1)")
        trans = np.array(self.translations, dtype=float)
        if trans.ndim == 1:
            trans = trans[:, None]
        if trans.ndim != 2:
            raise PreconditionError("translations must be a vector or an (m, n) array")
        if trans.shape[0] != lam.size:
            raise PreconditionError("one translation per map required")
        n = trans.shape[1]
        if self.orthogonal is None:
            orth = np.tile(np.eye(n), (lam.size, 1, 1))
        else:
            orth = np.array(self.orthogonal, dtype=float)
            if orth.shape != (lam.size, n, n):
                raise PreconditionError("orthogonal parts must be (m, n, n)")
        if not (np.all(np.isfinite(trans)) and np.all(np.isfinite(orth))):
            raise PreconditionError("translations and orthogonal parts must be finite")
        gram = np.einsum("mji,mjk->mik", orth, orth)
        defect = np.max(np.abs(gram - np.eye(n)))
        if defect > _ORTHO_TOL:
            raise PreconditionError(
                f"orthogonality defect {defect:.3g} exceeds {_ORTHO_TOL:.0e}"
            )
        object.__setattr__(self, "ratios", freeze(lam))
        object.__setattr__(self, "translations", freeze(trans))
        object.__setattr__(self, "orthogonal", freeze(orth))
        with np.errstate(over="ignore", invalid="ignore"):
            c = self.fixed_points().mean(axis=0)
            shifts = np.linalg.norm(self.map_points(np.arange(lam.size), c) - c, axis=1)
            r = float(np.max(shifts / (1.0 - lam)))
        if not math.isfinite(r):
            raise PreconditionError(f"bounding ball radius {r}: the maps overflow the float range")
        # invariance certificate: f_i(B(c, r)) inside B(c, r)
        if np.any(shifts + lam * r > r + _BALL_SLACK):
            raise EstimationError("bounding ball failed its invariance check")
        linear = lam[:, None, None] * orth
        object.__setattr__(self, "center", freeze(c))
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "gamma", float(lam.max()))
        object.__setattr__(self, "steps", freeze(linear @ c + trans - c))
        object.__setattr__(self, "linear", freeze(linear))
        object.__setattr__(self, "_straight", bool(np.all(np.abs(orth - np.eye(n)) == 0)))

    @property
    def m(self):
        return self.ratios.size

    @property
    def ambient_dim(self):
        return self.translations.shape[1]

    def fixed_points(self):
        """Fixed point of each map: (I - lambda_i O_i)^-1 t_i, one solve."""
        mats = np.eye(self.ambient_dim) - self.ratios[:, None, None] * self.orthogonal
        return np.linalg.solve(mats, self.translations[..., None])[..., 0]

    def map_points(self, idx, x):
        """Apply maps idx[k] to the single point x."""
        imgs = np.einsum("mij,j->mi", self.orthogonal[idx], np.asarray(x, dtype=float))
        return self.ratios[idx][:, None] * imgs + self.translations[idx]

    @functools.cached_property
    def _witness_gap(self):
        c, r = self.map_points(np.arange(self.m), self.center), self.ratios * self.radius
        gap = np.linalg.norm(c[:, None] - c[None], axis=2) - r[:, None] - r[None]
        return float(gap[np.triu_indices(self.m, k=1)].min())


def _prefix_weights(ifs, sym):
    """Weight of every prefix, lengths 0..L, of each word along sym's last axis.

    One cumprod from 1.0 in word order: the running product that
    AdaptedMetric.weight takes one word at a time, with the same bits.
    sym is a validated int array; the result has one more column.
    """
    ones = np.ones(sym.shape[:-1] + (1,))
    return np.cumprod(np.concatenate((ones, ifs.ratios[sym]), axis=-1), axis=-1)


def _prefix_maps(ifs, sym):
    """psi and linear part of f_{w|k} for k = 0..len(w), of a validated int array.

    psi is _prefix_weights.  A straight system's map is psi times the
    identity and carries no matrix (None); a rotated one gives A_0 = I,
    A_{k+1} = A_k @ linear[w_k], one product per symbol.
    """
    psi = _prefix_weights(ifs, sym)
    if ifs._straight:
        return psi, None
    amats = np.empty((sym.size + 1, ifs.ambient_dim, ifs.ambient_dim))
    amats[0] = np.eye(ifs.ambient_dim)
    for k, s in enumerate(sym.tolist()):
        amats[k + 1] = amats[k] @ ifs.linear[s]
    return psi, amats


def _apply_maps(psi, amats, v, count=None):
    """A_k v[k] for the first count (len(v) by default) maps of _prefix_maps.

    v is (count or 1, ..., n): one row serves every map, and the middle axes
    all take the same map.  On a straight system psi * v has the bits of the
    product psi I v, whose off-diagonal terms are exact zeros.
    """
    lead = (slice(len(v) if count is None else count),) + (None,) * (v.ndim - 2)
    if amats is None:
        return psi[lead + (None,)] * v
    return np.matmul(amats[lead], v[..., None])[..., 0]


def _sum_in_order(rows):
    """Sum of the rows of a 2-d array, added in order from +0."""
    return np.add.accumulate(np.concatenate((np.zeros((1, rows.shape[1])), rows)))[-1]


def natural_projection(ifs, word, tol):
    """Point of the attractor coded by the word, with certified error.

    Returns f_word(center) and the radius psi(word) * R of the image
    ball, which contains every completion of the word.  The word must be
    deep enough that psi(word) * diam(ball) <= tol.
    """
    if not (tol > 0):
        raise PreconditionError("tolerance must be positive")
    return _natural_projection(ifs, np.array(as_word(word, ifs.m), dtype=np.intp), tol)[:2]


def _natural_projection(ifs, sym, tol):
    """natural_projection of a validated int array, for a positive tol, and its maps.

    f_word(center) = A_L center + sum_k A_k t[w_k] over the prefix maps
    A_k of _prefix_maps, the sum taken in word order from +0, and the
    truncation radius is the psi of the whole word times the ball's.  Those
    maps come back as the third item, for callers that walk the same word.
    """
    maps = _prefix_maps(ifs, sym)
    psi = float(maps[0][-1])
    if psi * 2.0 * ifs.radius > tol:
        raise WordTooShortError(
            f"word of length {sym.size} cannot reach tolerance {tol:.3g}",
            required_length=max(_projection_depth(ifs, tol), sym.size + 1),
        )
    v = np.concatenate((ifs.translations[sym], ifs.center[None]))
    rows = _apply_maps(*maps, v)
    return rows[-1] + _sum_in_order(rows[:-1]), psi * ifs.radius, maps


def lyapunov_exponent(measure, ifs):
    """chi = -sum nu_1(i) log lambda_i, exact for every measure model."""
    if measure.m != ifs.m:
        raise AlphabetMismatchError(
            f"measure alphabet {measure.m} does not match the system's {ifs.m}"
        )
    return float(-np.dot(measure.marginal(1), np.log(ifs.ratios)))


class SymbolicDimension(NamedTuple):
    value: float
    projected: float


def symbolic_dimension(measure, ifs):
    """Entropy over Lyapunov exponent, and its ambient-clipped projection."""
    chi = lyapunov_exponent(measure, ifs)
    value = measure.entropy() / chi
    return SymbolicDimension(value=value, projected=min(ifs.ambient_dim, value))


def _projection_depth(ifs, tol):
    if ifs.radius == 0.0:
        return 1
    need = tol / (2.0 * ifs.radius)
    if need >= 1.0:
        return 1
    return max(1, math.ceil(math.log(need) / math.log(ifs.gamma)))


def _project_batch(ifs, words, out=None):
    """f_w(center) for each row w of a (count, length) word array, into out.

    Horner from the last symbol to the first: x <- ratios[s] O_s x + t_s
    per column.  Any integer array works; the samplers' (count, length)
    view of contiguous uint8 symbol columns makes each column one
    contiguous read.  Straight systems update the points in place, with
    one scalar ratio when all ratios agree; rotated ones keep one einsum
    per column.  out, when given, is the (count, n) array to fill.
    """
    count, length = words.shape
    x = np.empty((count, ifs.ambient_dim)) if out is None else out
    x[...] = ifs.center
    ratios, trans = ifs.ratios, ifs.translations
    scale = ratios[0] if np.all(ratios == ratios[0]) else None
    for j in range(length - 1, -1, -1):
        sym = words[:, j]
        if ifs._straight:
            x *= ratios.take(sym)[:, None] if scale is None else scale
            x += trans.take(sym, axis=0)
        else:
            x[...] = (
                ratios[sym, None] * np.einsum("kij,kj->ki", ifs.orthogonal[sym], x)
                + trans[sym]
            )
    return x


def sample_points(ifs, measure, count, tol, seed, workers=1):
    """Point cloud of projected measure samples, truncated to tolerance.

    Deterministic in the seed and identical for every worker count: each
    fixed-size chunk draws its words (the (count, length) view of uint8
    symbol columns that `sample_batch` returns) from its own substream and
    projects them into its own slice of one (count, n) array.  That array
    is allocated before any chunk runs; a count too large to allocate
    raises BudgetExceededError.
    """
    count = _integer(count, "point count")
    if count < 1:
        raise PreconditionError("need at least one point")
    if not (tol > 0):
        raise PreconditionError("tolerance must be positive")
    if measure.m != ifs.m:
        raise AlphabetMismatchError(
            f"measure alphabet {measure.m} does not match the system's {ifs.m}"
        )
    depth = _projection_depth(ifs, tol)
    try:
        pts = np.empty((count, ifs.ambient_dim))
    except (MemoryError, ValueError):
        raise BudgetExceededError(
            f"a cloud of {count} points in R^{ifs.ambient_dim} cannot be allocated"
        ) from None

    def chunk(idx, start, stop):
        rng = substream(seed, _STREAM_POINTS, idx)
        words = measure.sample_batch(stop - start, depth, rng)
        _project_batch(ifs, words, out=pts[start:stop])

    run_chunks(chunk, count, workers=workers)
    return PointCloud._own(pts, ifs.gamma**depth * ifs.radius)


@dataclass(frozen=True)
class TranslationFamily:
    """Box of translation offsets around a base system.

    The offset for map i ranges over [low_i, high_i] coordinatewise; the
    parameter measure is normalized uniform on the box.
    constraint_satisfied records whether max_{i != j} lambda_i + lambda_j
    < 1 holds.
    """

    base: SimilarityIFS
    low: np.ndarray
    high: np.ndarray
    constraint_satisfied: bool = field(init=False)

    def __post_init__(self):
        m, n = self.base.m, self.base.ambient_dim
        low = np.array(self.low, dtype=float)
        high = np.array(self.high, dtype=float)
        if low.ndim == 1:
            low = low[:, None]
        if high.ndim == 1:
            high = high[:, None]
        if low.shape != (m, n) or high.shape != (m, n):
            raise PreconditionError("offset box must be (m, n) low/high arrays")
        if not np.all(np.isfinite(low) & np.isfinite(high)):
            raise PreconditionError("offset box bounds must be finite")
        if not np.all(low <= high):
            raise PreconditionError("offset box has low > high")
        object.__setattr__(self, "low", freeze(low))
        object.__setattr__(self, "high", freeze(high))
        lam = self.base.ratios
        pair_max = np.max(lam[:, None] + lam[None, :] - 2 * np.diag(lam))
        object.__setattr__(self, "constraint_satisfied", bool(pair_max < 1.0))

    def sample_offsets(self, count, rng):
        m, n = self.base.m, self.base.ambient_dim
        u = rng.random((count, m, n))
        return self.low[None] + u * (self.high - self.low)[None]


def _affine_decomposition(ifs, word):
    """Pi_t(word) = c + sum_i M_i delta_i, truncated with a tail bound.

    M_i sums, in word order, the prefix maps A_k of _prefix_maps at the
    positions k where symbol i occurs, and c = sum_k A_k t[w_k]; the
    remainder after the truncation depth is bounded by psi(word) / (1 -
    gamma) times the largest admissible offset norm, psi(word) being the
    last psi of those maps.
    """
    sym = np.array(as_word(word, ifs.m), dtype=np.intp)
    n = ifs.ambient_dim
    psi, amats = _prefix_maps(ifs, sym)
    maps = psi[:-1, None, None] * np.eye(n) if amats is None else amats[:-1]
    mats = np.zeros((ifs.m, n, n))
    np.add.at(mats, sym, maps)
    const = _sum_in_order(_apply_maps(psi, amats, ifs.translations[sym]))
    tail_scale = float(psi[-1]) / (1.0 - ifs.gamma)
    return const, mats, tail_scale


class TransversalityResult(NamedTuple):
    exponent: float
    k_hat: float
    radii: np.ndarray
    measures: np.ndarray
    hits: np.ndarray
    used: np.ndarray
    degenerate: bool
    constraint_satisfied: bool
    samples: int


def transversality_exponent(
    family, word_a, word_b, r_grid, param_samples, seed, workers=1
):
    """Monte-Carlo sublevel-set measures of |Pi_t(a) - Pi_t(b)| over the box.

    Fits the log-log slope over radius bins that are statistically
    resolved (>= 50 hits) and not saturated (measure < 1), and reports
    K = max measure(r) / r^n.  Words must split at the first symbol.
    """
    ifs = family.base
    word_a = as_word(word_a, ifs.m)
    word_b = as_word(word_b, ifs.m)
    if len(word_a) == 0 or len(word_b) == 0 or word_a[0] == word_b[0]:
        raise PreconditionError("words must differ in their first symbol")
    radii = np.asarray(r_grid, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or not np.all(radii > 0):
        raise PreconditionError("need a positive radius grid")
    steps = radii[1:] / radii[:-1]
    if np.any(np.abs(steps - 0.5) > 1e-12):
        raise PreconditionError("radius grid must be dyadic decreasing")
    param_samples = _integer(param_samples, "parameter sample count")
    if param_samples < 1:
        raise PreconditionError("need at least one parameter sample")
    check_budget(param_samples, "transversality parameter samples")

    const_a, mats_a, tail_a = _affine_decomposition(ifs, word_a)
    const_b, mats_b, tail_b = _affine_decomposition(ifs, word_b)
    d_const = const_a - const_b
    d_mats = mats_a - mats_b
    sup_offset = float(
        np.max(np.maximum(np.abs(family.low), np.abs(family.high)).sum(axis=1))
    )
    sup_trans = float(np.max(np.abs(ifs.translations).sum(axis=1)))
    trunc = (tail_a + tail_b) * (sup_trans + sup_offset)
    # the truncated decomposition determines each M_i and the constant only
    # up to the tail scale, so degeneracy is decided at that resolution
    mat_tol = tail_a + tail_b + 1e-15
    const_tol = (tail_a + tail_b) * max(sup_trans, 1.0) + 1e-15
    degenerate = bool(
        np.max(np.abs(d_mats)) <= mat_tol and np.linalg.norm(d_const) <= const_tol
    )
    if trunc > 0.01 * radii[-1] and not degenerate:
        raise WordTooShortError(
            f"projection truncation {trunc:.3g} too coarse for the finest "
            f"radius {radii[-1]:.3g}; extend both words",
            required_length=max(len(word_a), len(word_b)) + 1,
        )

    def chunk(idx, start, stop):
        rng = substream(seed, _STREAM_PARAMS, idx)
        delta = family.sample_offsets(stop - start, rng)
        diff = d_const[None, :] + np.einsum("min,kmn->ki", d_mats, delta)
        dist = np.linalg.norm(diff, axis=1)
        return np.array([(dist <= r).sum() for r in radii], dtype=np.int64)

    counts = sum(run_chunks(chunk, param_samples, workers=workers))
    measures = counts / param_samples
    if degenerate:
        exponent, k_hat = math.nan, math.inf
        used = np.zeros(radii.size, dtype=bool)
    else:
        used = (counts >= _MIN_FIT_HITS) & (measures < 1.0)
        if used.sum() < 2:
            raise EstimationError("fewer than two resolved, unsaturated radius bins")
        exponent, _ = _linear_fit(np.log(radii[used]), np.log(measures[used]))
        k_hat = float(np.max(measures[used] / radii[used] ** ifs.ambient_dim))
    return TransversalityResult(
        exponent=exponent,
        k_hat=k_hat,
        radii=freeze(radii),
        measures=freeze(measures),
        hits=freeze(counts),
        used=freeze(used),
        degenerate=degenerate,
        constraint_satisfied=family.constraint_satisfied,
        samples=param_samples,
    )
