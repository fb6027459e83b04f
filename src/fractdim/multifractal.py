"""Structure function T(q), Legendre spectra, and optimal measures.

A weighted self-similar system (p_i, lambda_i) carries a one-parameter
family of Bernoulli measures interpolating between the extremal local
dimensions.  This module solves the defining moment equation

    sum_i p_i^q lambda_i^T = 1

in log-space, differentiates it analytically, evaluates the Legendre
transform of T, and assembles spectrum curves with exact endpoint
handling via uniform measures on the extremal symbol sets.

At an interior alpha the Legendre transform needs the exponent q with
alpha(q) = -T'(q) = alpha.  It is found by Newton steps on the pair
(q, T), which solve the moment equation and alpha(q) = alpha together
from one moment evaluation per step, inside a bracket taken from a batched
ladder of exponents 0, +-1, +-2, ..., +-2^59.  Each problem solves each
batch of rungs at most once and keeps it, so later alphas only read it.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, PreconditionError
from .measures import BernoulliMeasure, _as_prob_vector, _log_moment
from .runtime import check_budget, freeze

# residual certified for every returned root of the moment equation
_RESIDUAL_TOL = 1e-13
# a root solve stops once its Newton step is at most _STEP_ULPS * (1 + |T|),
# or at most _STALL_REL * (1 + |T|) but larger than half the step before;
# _NEWTON_CAP steps without stopping is a failure
_STEP_ULPS = 4 * 2.0**-52
_STALL_REL = 1e-8
_NEWTON_CAP = 100
# symbols within this tolerance of the extremal exponent join the endpoint set
_EXPONENT_ATOL = 1e-12
# alpha values this close to the range boundary take the endpoint branch
_EDGE_ATOL = 1e-10
# per-coordinate tolerance for the degenerate (linear T) detection
_DEGENERATE_ATOL = 1e-12
# tail extension of the q-grid stops once alpha moves less than this
_ALPHA_TAIL_TOL = 1e-9
_Q_CAP = 1e8


def _as_ratio_vector(obj):
    lam = np.array(obj, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise PreconditionError("need at least two contraction ratios")
    if not np.all((lam > 0) & (lam < 1)):
        raise PreconditionError("contraction ratios must lie strictly in (0, 1)")
    return lam


def _root_of_log_moment(z0, loglam, start=0.0):
    """Roots in T of f(T) = logsumexp(z0 + T*loglam, axis=1) = 0, one per row.

    f'(T) is the moment-weighted mean of loglam and f''(T) its weighted
    variance, so f is convex and, as every loglam entry is negative,
    strictly decreasing.  A convex function lies above its tangents, so
    the first Newton step from T = start, whatever start is, lands at or
    left of the root and each later step moves right towards it,
    quadratically once close: no bracket is needed.  Each row stops on its
    own once its step is at rounding level, or once a step near rounding
    level fails to halve (the slope is so small that rounding in f sets
    the step); that last step is not taken.  Rows never interact, so a
    root does not depend on its batch.  The residual certificate rejects
    any root that is off.
    """
    root = np.full(z0.shape[0], start)
    prev = np.full(root.size, np.inf)
    active = np.arange(root.size)
    for _ in range(_NEWTON_CAP):
        t = root[active]
        value, w = _log_moment(z0[active] + t[:, None] * loglam[None, :])
        step = value / (w * loglam[None, :]).sum(axis=1)
        scale = 1.0 + np.abs(t)
        size = np.abs(step)
        stalled = (size <= _STALL_REL * scale) & (size > 0.5 * prev[active])
        root[active] = np.where(stalled, t, t - step)
        prev[active] = size
        active = active[~(stalled | (size <= _STEP_ULPS * scale))]
        if active.size == 0:
            break
    else:
        raise EstimationError("Newton steps on the moment equation did not settle")
    final, _ = _log_moment(z0 + root[:, None] * loglam[None, :])
    if np.max(np.abs(final) / (1.0 + np.abs(root))) > _RESIDUAL_TOL:
        raise EstimationError("moment-equation residual did not certify")
    return root


@dataclass(frozen=True)
class SpectrumProblem:
    """Probability weights and contraction ratios on a common alphabet.

    similarity_dim is the root of sum lambda_i^s = 1; the problem is
    degenerate when p_i = lambda_i^similarity_dim for every symbol, in
    which case T is linear and the spectrum collapses to one point.  What
    depends on the fields alone is cached privately, out of repr and ==.
    """

    p: np.ndarray
    ratios: np.ndarray
    similarity_dim: float = field(init=False)
    degenerate: bool = field(init=False)

    def __post_init__(self):
        p = _as_prob_vector(self.p)
        lam = _as_ratio_vector(self.ratios)
        if p.size != lam.size:
            raise PreconditionError("weights and ratios must share one alphabet")
        s0 = float(_root_of_log_moment(np.zeros((1, lam.size)), np.log(lam))[0])
        object.__setattr__(self, "p", freeze(p))
        object.__setattr__(self, "ratios", freeze(lam))
        object.__setattr__(self, "similarity_dim", s0)
        degenerate = bool(np.all(np.abs(p - lam**s0) <= _DEGENERATE_ATOL))
        object.__setattr__(self, "degenerate", degenerate)

    @property
    def m(self):
        return self.p.size

    @functools.cached_property
    def _logs(self):
        """log p, log lambda and the local dimensions, their quotient; p > 0 only."""
        logp, loglam = np.log(self.p), np.log(self.ratios)
        return freeze(logp), freeze(loglam), freeze(logp / loglam)

    @functools.cached_property
    def _rungs(self):
        return {}  # _q_ladder's solved batches by top: at most len(_LADDER)


def _supported_logs(problem, q_min):
    """Log weights/ratios, restricted to the positive-p symbols for q > 0."""
    pos = problem.p > 0
    if np.all(pos):
        return problem._logs[:2]
    if q_min <= 0:
        raise PreconditionError("zero weights admit no moment equation at q <= 0")
    return np.log(problem.p[pos]), np.log(problem.ratios[pos])


def solve_T_many(problem, qs):
    """Vectorized T(q) over an array of exponents q."""
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 1 or qs.size == 0:
        raise PreconditionError("q grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(qs)):
        raise PreconditionError("q grid must be finite")
    logp, loglam = _supported_logs(problem, float(np.min(qs)))
    check_budget(qs.size * logp.size, "structure-function grid")
    z0 = qs[:, None] * logp[None, :]
    return _root_of_log_moment(z0, loglam)


def solve_T(problem, q):
    """The unique real T with sum_i p_i^q lambda_i^T = 1."""
    return float(solve_T_many(problem, np.array([float(q)]))[0])


def _evaluate(logp, loglam, qs, ts):
    """F(q, T) = log sum_i p_i^q lambda_i^T per row, with the weighted moments.

    The moments are E[u], E[v], E[uu], E[uv], E[vv] of (u, v) = (log p,
    log lambda) under the softmax weights of F.  Each is one (1, m) @ (m, 1)
    product per row, so no row's values depend on its batch.
    """
    values, w = _log_moment(qs[:, None] * logp + ts[:, None] * loglam)
    return values, [
        (w[:, None, :] @ v[:, None])[:, 0, 0]
        for v in (logp, loglam, logp * logp, logp * loglam, loglam * loglam)
    ]


def _alpha(logp, loglam, qs, ts):
    """alpha(q) = -T'(q) per row, from the weighted moments."""
    su, sv = _evaluate(logp, loglam, qs, ts)[1][:2]
    return su / sv


def T_derivative(problem, q):
    """Analytic T'(q) at the solved root: weighted log-ratio quotient."""
    qs = np.array([float(q)])
    logp, loglam = _supported_logs(problem, qs[0])
    return -float(_alpha(logp, loglam, qs, solve_T_many(problem, qs))[0])


def alpha_range(problem):
    """Extremal local dimensions [min, max] of log p_i / log lambda_i."""
    if np.any(problem.p <= 0):
        raise PreconditionError("alpha range needs strictly positive weights")
    return float(np.min(problem._logs[2])), float(np.max(problem._logs[2]))


def _endpoint_set(problem, alpha_end):
    tol = _EXPONENT_ATOL * (1.0 + abs(alpha_end))
    return np.abs(problem._logs[2] - alpha_end) <= tol


def _endpoint_value(problem, alpha_end):
    """Dimension of the uniform Bernoulli measure on the extremal symbols."""
    mask = _endpoint_set(problem, alpha_end)
    k = int(mask.sum())
    chi = -float(np.mean(np.log(problem.ratios[mask])))
    return math.log(k) / chi


# the q bracket is sought on the rungs 0, +-1, +-2, ..., +-2^k, for k up to
# each of these in turn; past 2^59 alpha is numerically at an endpoint
_LADDER = (7, 15, 31, 59)


def _q_ladder(problem, alpha):
    """Tightest rung bracket [lo, hi] of the root of alpha(q) = alpha, and a start.

    alpha(q) is non-increasing, so lo is the last rung with alpha(q) > alpha
    and hi the first rung after it with alpha(q) <= alpha.  Each batch of
    rungs is one row-wise root solve and one moment evaluation, made when
    an alpha first needs it and kept in problem._rungs as (q, T(q), F,
    *moments, alpha(q)).  The start is the rung in [lo, hi] whose alpha is
    nearest the target, returned as (q, T(q), F, *moments) as in _evaluate,
    with the residual F certified by the root solve.  None when no batch
    brackets alpha.
    """
    for top in _LADDER:
        if top not in problem._rungs:
            logp, loglam = problem._logs[:2]
            side = 2.0 ** np.arange(top + 1)
            qs = np.concatenate([-side[::-1], [0.0], side])
            ts = _root_of_log_moment(qs[:, None] * logp, loglam)
            values, moments = _evaluate(logp, loglam, qs, ts)
            batch = (qs, ts, values, *moments, moments[0] / moments[1])
            problem._rungs[top] = tuple(freeze(x) for x in batch)
        *batch, alphas = problem._rungs[top]
        gap = alphas - alpha
        above = np.flatnonzero(gap > 0)
        if above.size == 0:
            continue
        i = above[-1]
        below = np.flatnonzero(gap[i + 1 :] <= 0)
        if below.size == 0:
            continue
        j = i + 1 + below[0]
        k = i + int(np.argmin(np.abs(gap[i : j + 1])))
        return float(batch[0][i]), float(batch[0][j]), [float(x[k]) for x in batch]
    return None


def _gap(value, moments, alpha):
    """G(q, T(q)) = E v * (alpha(q) - alpha), to first order in the residual F.

    At (q, T) the weights are those of F(q, T) = log sum_i p_i^q lambda_i^T,
    with (u, v) = (log p, log lambda) and G(q, T) = E_w[u - alpha v].  The
    root T(q) of F lies at T - F / E v to first order, and G moves by
    Cov(v, u - alpha v) per unit of T.  As E v < 0, a negative gap means
    alpha(q) > alpha.
    """
    su, sv, _, uv, vv = moments
    gt = uv - su * sv - alpha * (vv - sv * sv)
    return su - alpha * sv - gt * value / sv


def _joint_step(value, moments, alpha):
    """Newton step (dq, dT) on F = 0, G = 0, or None when it is not usable.

    The Jacobian rows are (E u, E v) and (Cov(u, u - alpha v),
    Cov(v, u - alpha v)), so the moments of one evaluation give the whole
    step: dq = -E v * gap / det, and dT = F / E v - alpha(q, T) dq, the root
    correction in T plus the move along the curve's tangent.  At the root
    the determinant is -E v * Var(u - alpha v) > 0; a determinant that is
    not positive gives no step.
    """
    su, sv, uu, uv, vv = moments
    cuv = uv - su * sv
    det = su * (cuv - alpha * (vv - sv * sv)) - sv * (uu - su * su - alpha * cuv)
    if not det > 0:
        return None
    dq = -sv * _gap(value, moments, alpha) / det
    return dq, (value - su * dq) / sv


def _solve_q(problem, alpha):
    """(q, T) with T = T(q) and alpha(q) = alpha, or None when outside all brackets.

    alpha(q) = -T'(q) is non-increasing, so the rung bracket of _q_ladder is
    certified for interior alpha, and its rungs are solved once per problem
    and kept, so a later alpha pays only for its own steps.  From its start
    rung, Newton steps on the pair (q, T) solve F = log sum p^q lambda^T = 0
    and alpha(q) = alpha together (see _joint_step), one moment evaluation
    per step, and converge quadratically.  A bracket end moves only to a
    point whose residual F certifies, by the sign of _gap, which is also the
    sign of the step in q: a step from a bracket end never leaves the
    bracket by rounding.  A step that leaves it, or that _joint_step rejects,
    is replaced by a bisection with a root solve for T, started on the
    tangent of T at the rejected point.  The loop stops on the root solve's
    rule, applied to the step scaled by (1 + |q|, 1 + |T|), at a certified
    point, or on a collapsed bracket (near an endpoint a rounding-level step
    can stay above the stall bound), and returns that point without taking
    the final step: alpha q + T(q) is stationary in q, so that step would
    move T*(alpha) only at second order.
    """
    ladder = _q_ladder(problem, alpha)
    if ladder is None:
        return None
    lo, hi, (q, t, value, *moments) = ladder
    logp, loglam = problem._logs[:2]
    prev = math.inf
    for _ in range(200):
        certified = abs(value) <= _RESIDUAL_TOL * (1.0 + abs(t))
        if certified:
            if _gap(value, moments, alpha) < 0:
                lo = q
            else:
                hi = q
            if hi - lo <= 1e-14 * (1.0 + abs(hi)):
                return q, t
        step = _joint_step(value, moments, alpha)
        size = math.inf
        if step is not None:
            size = max(abs(step[0]) / (1.0 + abs(q)), abs(step[1]) / (1.0 + abs(t)))
        stalled = size <= _STALL_REL and size > 0.5 * prev
        if certified and (stalled or size <= _STEP_ULPS):
            return q, t
        prev = size
        if step is not None and lo < q - step[0] < hi:
            q, t = q - step[0], t - step[1]
        else:
            # T'(q) = -alpha(q): start on the tangent at the rejected point
            mid = 0.5 * (lo + hi)
            start = t - moments[0] / moments[1] * (mid - q)
            q = mid
            t = float(_root_of_log_moment(np.array([q * logp]), loglam, start)[0])
        values, moments = _evaluate(logp, loglam, np.array([q]), np.array([t]))
        value, moments = float(values[0]), [float(x[0]) for x in moments]
    raise EstimationError("Newton steps on alpha(q) = alpha did not settle")


def _classify_alpha(problem, alpha):
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise PreconditionError(f"alpha must be finite, got {alpha}")
    if problem.degenerate:
        s0 = problem.similarity_dim
        if abs(alpha - s0) > 1e-9 * (1.0 + s0):
            raise PreconditionError("alpha outside the degenerate point spectrum")
        return ("degenerate", None)
    a_min, a_max = alpha_range(problem)
    span = a_max - a_min
    if alpha < a_min - _EDGE_ATOL * (1 + span) or alpha > a_max + _EDGE_ATOL * (1 + span):
        raise PreconditionError("alpha outside the attainable range")
    if alpha <= a_min + _EDGE_ATOL * (1 + span):
        return ("endpoint", a_min)
    if alpha >= a_max - _EDGE_ATOL * (1 + span):
        return ("endpoint", a_max)
    root = _solve_q(problem, alpha)
    if root is None:
        # bracket growth exhausted: alpha is numerically at an endpoint
        return ("endpoint", a_min if alpha - a_min < a_max - alpha else a_max)
    return ("interior", root)


def legendre(problem, alpha):
    """T*(alpha) = inf_q (alpha q + T(q)) on [alpha_min, alpha_max].

    Interior alpha is located through the monotone derivative; endpoint
    alpha takes the dimension of the uniform measure on the extremal
    symbol set, which realizes the limit without large-q overflow.
    """
    kind, datum = _classify_alpha(problem, alpha)
    if kind == "degenerate":
        return problem.similarity_dim
    if kind == "endpoint":
        return _endpoint_value(problem, datum)
    q, t = datum
    return q * float(alpha) + t


def optimal_measure(problem, alpha):
    """Bernoulli measure whose symbolic dimension attains T*(alpha).

    Interior alpha yields weights p_i^q lambda_i^T(q), which sum to one by
    the moment equation; endpoint alpha yields the uniform measure on the
    extremal symbol set with zeros elsewhere.
    """
    kind, datum = _classify_alpha(problem, alpha)
    if kind == "degenerate":
        return BernoulliMeasure(problem.p)
    if kind == "endpoint":
        mask = _endpoint_set(problem, datum)
        w = mask / mask.sum()
        return BernoulliMeasure(w)
    q, t = datum
    w = np.exp(q * problem._logs[0] + t * problem._logs[1])
    total = w.sum()
    # the exponents cancel terms of size ~|T|, whose rounding moves the sum
    if abs(total - 1.0) > 1e-12 * (1.0 + abs(t)):
        raise EstimationError("optimal weights failed the moment identity")
    return BernoulliMeasure(w / total)


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled (q, T, alpha, f) tuples, sorted by q, endpoints appended.

    Endpoint rows carry q = +-inf and T = nan; they hold the limit values
    (alpha_max at q = -inf first, alpha_min at q = +inf last).
    """

    q: np.ndarray
    T: np.ndarray
    alpha: np.ndarray
    f: np.ndarray
    endpoint: np.ndarray
    alpha_min: float
    alpha_max: float
    alpha_peak: float
    similarity_dim: float
    degenerate: bool


def _curve_checks(qs, ts, alphas, fs, s0):
    if not np.all(np.diff(ts) < 0):
        raise EstimationError("structure function lost strict monotonicity")
    if not np.all(np.diff(alphas) <= 1e-12):
        raise EstimationError("alpha(q) lost monotonicity")
    if np.min(fs) < -1e-9 or np.max(fs) > s0 + 1e-9:
        raise EstimationError("spectrum values escaped [0, similarity_dim]")


def spectrum_curve(problem, q_grid=None):
    """Assemble the spectrum over a q-grid, extended until alpha settles.

    The grid is extended by doubling q on both sides until consecutive
    alpha values move less than 1e-9, so truncation of the q-range is
    checked rather than assumed.  A degenerate problem returns the
    single-point curve with the flag set.
    """
    s0 = problem.similarity_dim
    if problem.degenerate:
        one = freeze(np.array([s0]))
        return SpectrumCurve(
            q=freeze(np.array([0.0])),
            T=one,
            alpha=one,
            f=one,
            endpoint=freeze(np.array([False])),
            alpha_min=s0,
            alpha_max=s0,
            alpha_peak=s0,
            similarity_dim=s0,
            degenerate=True,
        )
    if q_grid is None:
        q_grid = np.linspace(-20.0, 20.0, 801)
    qs = np.unique(np.asarray(q_grid, dtype=float))
    if qs.size < 2:
        raise PreconditionError("need at least two grid points")
    logp, loglam = _supported_logs(problem, float(qs[0]) if qs[0] < 0 else -1.0)
    ts = solve_T_many(problem, qs)
    alphas = _alpha(logp, loglam, qs, ts)
    rows = list(zip(qs.tolist(), ts.tolist(), alphas.tolist()))
    for sign in (1.0, -1.0):
        q = sign * max(1.0, abs(qs[-1 if sign > 0 else 0]))
        prev = alphas[-1] if sign > 0 else alphas[0]
        while abs(q) <= _Q_CAP:
            q = 2.0 * q
            at = np.array([q])
            t = _root_of_log_moment(at[:, None] * logp, loglam)
            a = float(_alpha(logp, loglam, at, t)[0])
            rows.append((q, float(t[0]), a))
            if abs(a - prev) < _ALPHA_TAIL_TOL:
                break
            prev = a
    qs, ts, alphas = np.array(sorted(rows)).T
    fs = qs * alphas + ts
    _curve_checks(qs, ts, alphas, fs, s0)
    fs = np.maximum(fs, 0.0)
    a_min, a_max = alpha_range(problem)
    peak = _alpha(logp, loglam, np.zeros(1), np.array([s0]))
    qs = np.concatenate([[-math.inf], qs, [math.inf]])
    ts = np.concatenate([[math.nan], ts, [math.nan]])
    alphas = np.concatenate([[a_max], alphas, [a_min]])
    fs = np.concatenate(
        [[_endpoint_value(problem, a_max)], fs, [_endpoint_value(problem, a_min)]]
    )
    endpoint = np.zeros(qs.size, dtype=bool)
    endpoint[0] = endpoint[-1] = True
    return SpectrumCurve(
        q=freeze(qs),
        T=freeze(ts),
        alpha=freeze(alphas),
        f=freeze(fs),
        endpoint=freeze(endpoint),
        alpha_min=a_min,
        alpha_max=a_max,
        alpha_peak=float(peak[0]),
        similarity_dim=s0,
        degenerate=False,
    )
