"""Structure function, Legendre spectrum, endpoint devices, optimal measures."""

import copy
import math
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

import fractdim.multifractal as mf
from fractdim.errors import EstimationError, PreconditionError
from fractdim.ifs import SimilarityIFS
from fractdim.measures import BernoulliMeasure, _log_moment
from fractdim.multifractal import (
    _EDGE_ATOL,
    _LADDER,
    _RESIDUAL_TOL,
    SpectrumProblem,
    _root_of_log_moment,
    _solve_q,
    _supported_logs,
    T_derivative,
    alpha_range,
    legendre,
    optimal_measure,
    solve_T,
    solve_T_many,
    spectrum_curve,
)

THIRDS = SpectrumProblem(p=[0.25, 0.75], ratios=[1 / 3, 1 / 3])
HALVES = SpectrumProblem(p=[0.5, 0.5], ratios=[0.5, 0.5])


def thirds_T(q):
    """Closed form for equal ratios 1/3: T = log(sum p^q)/log 3."""
    return math.log(0.25**q + 0.75**q) / math.log(3)


def legendre_gridmin(problem, alpha):
    """Brute-force inf of alpha*q + T(q): coarse grid plus local refinement."""
    qs = np.arange(-60.0, 60.0 + 1e-9, 1e-3)
    vals = alpha * qs + solve_T_many(problem, qs)
    i = int(np.argmin(vals))
    lo = qs[max(i - 2, 0)]
    hi = qs[min(i + 2, qs.size - 1)]
    fine = np.linspace(lo, hi, 4001)
    fvals = alpha * fine + solve_T_many(problem, fine)
    return float(min(vals[i], fvals.min()))


def reference_root_of_log_moment(z0, loglam):
    """Roots in T of logsumexp(z0 + T*loglam, axis=1) = 0, one per row.

    The map is strictly decreasing in T because every loglam entry is
    negative, so a geometrically grown bracket plus bisection is certified;
    two Newton polish steps push the residual to rounding level.
    """
    n = z0.shape[0]

    def value(t):
        z = z0 + t[:, None] * loglam[None, :]
        top = z.max(axis=1)
        return top + np.log(np.exp(z - top[:, None]).sum(axis=1))

    lo = np.full(n, -1.0)
    hi = np.full(n, 1.0)
    for _ in range(90):
        bad_lo = value(lo) <= 0.0
        bad_hi = value(hi) >= 0.0
        if not (bad_lo.any() or bad_hi.any()):
            break
        lo[bad_lo] *= 2.0
        hi[bad_hi] *= 2.0
    else:
        raise EstimationError("failed to bracket the moment-equation root")
    # a loose bracket suffices: the map is smooth and strictly decreasing,
    # so three Newton steps from here land at rounding level, and the
    # residual certificate below rejects any escape
    for _ in range(400):
        if np.max((hi - lo) / (1.0 + np.abs(hi))) <= 1e-6:
            break
        mid = 0.5 * (lo + hi)
        pos = value(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    root = 0.5 * (lo + hi)
    for _ in range(3):
        z = z0 + root[:, None] * loglam[None, :]
        resid = logsumexp(z, axis=1)
        slope = np.sum(softmax(z, axis=1) * loglam[None, :], axis=1)
        root = root - resid / slope
    final = value(root)
    if np.max(np.abs(final) / (1.0 + np.abs(root))) > 1e-13:
        raise EstimationError("moment-equation residual did not certify")
    return root


def reference_solve_q(problem, alpha):
    """Exponent q with alpha(q) = alpha, or None when outside all brackets.

    The bracket-collapse solve: a geometrically grown bracket, then Newton
    steps that fall back to bisection, until the bracket is 1e-14 wide;
    the bracket midpoint is returned.
    """
    logp, loglam = _supported_logs(problem, -1.0)

    def alpha_of(q):
        t = solve_T(problem, q)
        _, w = _log_moment(q * logp + t * loglam)
        return float(np.dot(w, logp) / np.dot(w, loglam))

    lo, hi = -1.0, 1.0
    for _ in range(60):
        if alpha_of(lo) > alpha:
            break
        lo *= 2.0
    else:
        return None
    for _ in range(60):
        if alpha_of(hi) < alpha:
            break
        hi *= 2.0
    else:
        return None
    q = 0.5 * (lo + hi)
    for _ in range(200):
        t = solve_T(problem, q)
        _, w = _log_moment(q * logp + t * loglam)
        su = float(np.dot(w, logp))
        sv = float(np.dot(w, loglam))
        a = su / sv
        uu = float(np.dot(w, logp * logp)) - su * su
        uv = float(np.dot(w, logp * loglam)) - su * sv
        vv = float(np.dot(w, loglam * loglam)) - sv * sv
        tpp = -(uu - 2.0 * uv * a + vv * a * a) / sv
        ap = -tpp
        if a > alpha:
            lo = q
        else:
            hi = q
        if hi - lo <= 1e-14 * (1.0 + abs(hi)):
            break
        step = (a - alpha) / ap if ap < 0 else math.nan
        nxt = q - step
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        q = nxt
    return 0.5 * (lo + hi)


ORACLE_QS = np.array(
    [-1e8, -1e4, -50.0, -3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 7.0, 50.0, 60.0, 1e4, 1e8]
)
# (weights, ratios) on which a weaker stopping rule fails
HARD_PROBLEMS = [
    # a ratio near 1 carrying moment weight near 1: the slope is near 0,
    # so steps at rounding level never shrink and only the halving rule stops
    ([0.999, 0.001], [0.998, 0.3]),
    ([0.97, 0.02, 0.01], [0.9975, 0.5, 0.2]),
    ([0.5, 0.3, 0.2], [0.9999, 0.9, 0.5]),
    # a ratio near 1e-4 among 5-6 symbols: at q = 60 and 1e4 the first step
    # overshoots, and stopping at the first f <= 0 misses the certificate
    ([0.008, 0.237, 0.487, 0.076, 0.13, 0.062],
     [0.0111, 0.1747, 0.995, 0.000283, 0.7506, 0.059]),
    ([0.3, 0.25, 0.2, 0.15, 0.1], [0.5, 0.4, 0.3, 0.2, 1.2e-4]),
    ([0.05, 0.1, 0.15, 0.2, 0.2, 0.3], [0.6, 0.5, 0.4, 0.3, 0.2, 1e-4]),
]


# (ratios, local dimensions log p_i / log lambda_i up to a common shift)
# whose two largest or two smallest dimensions differ by 0.01: near those
# endpoints alpha'(q) is tiny, so Newton steps at rounding level are large
NEAR_TIE_PROBLEMS = [
    ([0.3, 0.5, 0.4, 0.6], [0.0, 0.01, 0.6, 0.61]),
    ([0.2, 0.7, 0.45], [0.0, 0.01, 0.02]),
    ([0.3, 0.6], [0.0, 0.01]),
]


def near_tie_problems():
    problems = []
    for lam, dims in NEAR_TIE_PROBLEMS:
        lam, dims = np.array(lam), np.array(dims)
        lo, hi = 0.0, 5.0  # sum lam^(dims + c) = 1 is decreasing in c
        for _ in range(200):
            c = 0.5 * (lo + hi)
            lo, hi = (c, hi) if np.sum(lam ** (dims + c)) > 1.0 else (lo, c)
        p = lam ** (dims + c)
        problems.append((p / p.sum(), lam))
    return problems


def oracle_problems():
    rng = np.random.default_rng(20240605)
    problems = [(np.array(p) / np.sum(p), np.array(lam)) for p, lam in HARD_PROBLEMS]
    for m in range(2, 7):
        for concentration in (0.1, 1.0, 10.0):
            for _ in range(4):
                p = rng.dirichlet(np.full(m, concentration))
                p = np.maximum(p, 1e-300)
                lam = np.exp(rng.uniform(math.log(1e-4), math.log(0.9999), m))
                problems.append((p / p.sum(), lam))
    return problems


small_probs = st.floats(min_value=0.05, max_value=0.95)
small_ratio = st.floats(min_value=0.1, max_value=0.9)


class TestProblem:
    def test_similarity_dimension_thirds(self):
        assert THIRDS.similarity_dim == pytest.approx(math.log(2) / math.log(3), abs=1e-13)

    def test_similarity_dimension_closed_forms(self):
        halves = SpectrumProblem(p=[0.3, 0.7], ratios=[0.5, 0.5])
        assert halves.similarity_dim == pytest.approx(1.0, abs=1e-13)
        triple = SpectrumProblem(p=[0.2, 0.3, 0.5], ratios=[0.5, 0.25, 0.25])
        assert triple.similarity_dim == pytest.approx(1.0, abs=1e-13)

    def test_similarity_dimension_is_the_pressure_root(self):
        F = SimilarityIFS(ratios=[0.3, 0.45, 0.21], translations=[0.0, 0.4, 0.8])
        s = SpectrumProblem(p=[0.2, 0.3, 0.5], ratios=F.ratios).similarity_dim
        # the pressure log sum lambda_i^s vanishes at the similarity dimension
        assert abs(logsumexp(s * np.log(F.ratios))) <= 1e-13

    def test_similarity_dimension_monotone_in_ratios(self):
        a = SpectrumProblem(p=[0.5, 0.5], ratios=[0.3, 0.4])
        b = SpectrumProblem(p=[0.5, 0.5], ratios=[0.3, 0.45])
        assert b.similarity_dim > a.similarity_dim

    def test_degenerate_detection(self):
        # p_i = lambda_i^s0 with lambda = (1/2, 1/4): golden-ratio weights
        g = (math.sqrt(5) - 1) / 2
        prob = SpectrumProblem(p=[g, g * g], ratios=[0.5, 0.25])
        assert prob.degenerate
        assert prob.similarity_dim == pytest.approx(
            math.log(g) / math.log(0.5), abs=1e-12
        )
        assert not THIRDS.degenerate

    def test_uniform_equal_is_degenerate(self):
        assert HALVES.degenerate
        assert HALVES.similarity_dim == pytest.approx(1.0, abs=1e-13)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(PreconditionError):
            SpectrumProblem(p=[0.5, 0.5], ratios=[0.5, 0.25, 0.1])

    def test_bad_ratio_rejected(self):
        with pytest.raises(PreconditionError):
            SpectrumProblem(p=[0.5, 0.5], ratios=[0.5, 1.0])


class TestSolveT:
    def test_uniform_halves_closed_form(self):
        for q in (-2.0, 0.0, 1.0, 3.0):
            assert solve_T(HALVES, q) == pytest.approx(1.0 - q, abs=1e-12)

    def test_thirds_closed_form(self):
        for q in np.arange(-5.0, 5.01, 0.5):
            assert solve_T(THIRDS, q) == pytest.approx(thirds_T(q), abs=1e-12)
        assert solve_T(THIRDS, 0.0) == pytest.approx(0.6309297535714574, abs=1e-13)

    def test_T_at_one_is_zero(self):
        assert abs(solve_T(THIRDS, 1.0)) <= 1e-12
        prob = SpectrumProblem(p=[0.1, 0.2, 0.7], ratios=[0.2, 0.3, 0.4])
        assert abs(solve_T(prob, 1.0)) <= 1e-12

    def test_residual_certified(self):
        prob = SpectrumProblem(p=[0.1, 0.2, 0.7], ratios=[0.2, 0.3, 0.4])
        for q in (-7.0, -1.3, 0.4, 2.9, 11.0):
            t = solve_T(prob, q)
            resid = np.sum(prob.p**q * prob.ratios**t) - 1.0
            assert abs(resid) <= 1e-12

    def test_zero_weights_positive_q_restricts_support(self):
        prob = SpectrumProblem(p=[0.5, 0.5, 0.0], ratios=[0.4, 0.4, 0.3])
        two = SpectrumProblem(p=[0.5, 0.5], ratios=[0.4, 0.4])
        assert solve_T(prob, 2.0) == pytest.approx(solve_T(two, 2.0), abs=1e-13)

    def test_zero_weights_nonpositive_q_rejected(self):
        prob = SpectrumProblem(p=[0.5, 0.5, 0.0], ratios=[0.4, 0.4, 0.3])
        for q in (0.0, -1.0):
            with pytest.raises(PreconditionError):
                solve_T(prob, q)

    def test_many_matches_scalar(self):
        qs = np.arange(-10.0, 10.01, 0.25)
        ts = solve_T_many(THIRDS, qs)
        for q, t in zip(qs, ts):
            assert t == pytest.approx(solve_T(THIRDS, q), abs=1e-13)

    @given(small_probs, small_ratio, small_ratio)
    @settings(max_examples=50)
    def test_T_decreasing_in_q(self, p0, r0, r1):
        prob = SpectrumProblem(p=[p0, 1 - p0], ratios=[r0, r1])
        qs = np.arange(-4.0, 4.01, 0.5)
        ts = solve_T_many(prob, qs)
        assert np.all(np.diff(ts) < 0)


class TestRootSolver:
    @pytest.mark.parametrize("p, lam", oracle_problems())
    def test_matches_bracket_bisection_oracle(self, p, lam):
        z0 = ORACLE_QS[:, None] * np.log(p)[None, :]
        loglam = np.log(lam)
        ref = reference_root_of_log_moment(z0, loglam)
        got = _root_of_log_moment(z0, loglam)
        assert np.all(np.abs(got - ref) <= 1e-13 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize(
        "p, lam",
        [([0.25, 0.75], [1 / 3, 1 / 3]), ([0.1, 0.2, 0.7], [0.2, 0.3, 0.4])]
        + HARD_PROBLEMS[:1] + HARD_PROBLEMS[3:4],
    )
    def test_rows_independent_of_batch(self, p, lam):
        prob = SpectrumProblem(p=np.array(p) / np.sum(p), ratios=lam)
        qs = np.concatenate(
            [[-1e8, -1e4, -60.0], np.linspace(-20.0, 20.0, 41), [60.0, 1e4, 1e8]]
        )
        ts = solve_T_many(prob, qs)
        for q, t in zip(qs, ts):
            assert t == solve_T(prob, q)
        assert np.array_equal(solve_T_many(prob, qs[::-1]), ts[::-1])


class TestDerivative:
    def test_uniform_halves_slope(self):
        for q in (-3.0, 0.0, 2.0):
            assert T_derivative(HALVES, q) == pytest.approx(-1.0, abs=1e-12)

    def test_thirds_at_zero(self):
        expect = (math.log(0.25) + math.log(0.75)) / (2 * math.log(1 / 3))
        assert T_derivative(THIRDS, 0.0) == pytest.approx(-expect, abs=1e-12)
        assert expect == pytest.approx(0.7618595071429148, abs=1e-12)

    def test_at_one_gives_measure_dimension(self):
        expect = (0.25 * math.log(0.25) + 0.75 * math.log(0.75)) / math.log(1 / 3)
        assert T_derivative(THIRDS, 1.0) == pytest.approx(-expect, abs=1e-12)

    def test_matches_finite_differences(self):
        prob = SpectrumProblem(p=[0.15, 0.25, 0.6], ratios=[0.2, 0.35, 0.3])
        h = 1e-6
        for q in (-2.5, -0.5, 0.0, 1.0, 3.5):
            fd = (solve_T(prob, q + h) - solve_T(prob, q - h)) / (2 * h)
            an = T_derivative(prob, q)
            assert an == pytest.approx(fd, rel=1e-6)

    @given(small_probs, small_ratio, small_ratio)
    @settings(max_examples=30)
    def test_convexity(self, p0, r0, r1):
        prob = SpectrumProblem(p=[p0, 1 - p0], ratios=[r0, r1])
        qs = np.arange(-3.0, 3.01, 0.5)
        slopes = np.array([T_derivative(prob, q) for q in qs])
        assert np.all(np.diff(slopes) >= -1e-8)


class TestAlphaRange:
    def test_thirds(self):
        lo, hi = alpha_range(THIRDS)
        assert lo == pytest.approx(math.log(0.75) / math.log(1 / 3), abs=1e-14)
        assert hi == pytest.approx(math.log(0.25) / math.log(1 / 3), abs=1e-14)
        assert (lo, hi) == pytest.approx((0.2618595071429426, 1.2618595071429574))

    def test_mixed_ratios(self):
        prob = SpectrumProblem(p=[0.5, 0.5], ratios=[0.5, 0.25])
        assert alpha_range(prob) == pytest.approx((0.5, 1.0), abs=1e-12)

    def test_zero_weight_rejected(self):
        prob = SpectrumProblem(p=[0.5, 0.5, 0.0], ratios=[0.4, 0.4, 0.3])
        with pytest.raises(PreconditionError):
            alpha_range(prob)


class TestLegendre:
    def test_peak_value(self):
        a0 = -T_derivative(THIRDS, 0.0)
        assert legendre(THIRDS, a0) == pytest.approx(THIRDS.similarity_dim, abs=1e-9)

    def test_tangency_at_q_one(self):
        a1 = -T_derivative(THIRDS, 1.0)
        assert legendre(THIRDS, a1) == pytest.approx(a1, abs=1e-9)

    def test_duality_along_grid(self):
        for q in np.arange(-3.0, 3.01, 0.5):
            a = -T_derivative(THIRDS, q)
            expect = q * a + solve_T(THIRDS, q)
            assert legendre(THIRDS, a) == pytest.approx(expect, abs=1e-9)

    def test_endpoints_are_singleton_zero(self):
        lo, hi = alpha_range(THIRDS)
        assert legendre(THIRDS, lo) == 0.0
        assert legendre(THIRDS, hi) == 0.0

    def test_endpoint_with_two_symbols(self):
        # symbols 0 and 1 share the max exponent; uniform measure on them
        prob = SpectrumProblem(p=[0.25, 0.25, 0.5], ratios=[1 / 3, 1 / 3, 1 / 3])
        lo, hi = alpha_range(prob)
        assert legendre(prob, hi) == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
        assert legendre(prob, lo) == 0.0

    def test_outside_range_rejected(self):
        lo, hi = alpha_range(THIRDS)
        for a in (lo - 0.01, hi + 0.01):
            with pytest.raises(PreconditionError):
                legendre(THIRDS, a)

    @pytest.mark.parametrize("problem", [THIRDS, HALVES], ids=["thirds", "degenerate"])
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("solve", [legendre, optimal_measure])
    def test_non_finite_alpha_rejected(self, solve, alpha, problem):
        # NaN fails every range compare, so it used to fall to an endpoint
        with pytest.raises(PreconditionError, match=f"alpha must be finite, got {alpha}"):
            solve(problem, alpha)

    def test_degenerate_point(self):
        assert legendre(HALVES, 1.0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(PreconditionError):
            legendre(HALVES, 0.9)

    def test_matches_grid_minimization(self):
        prob = SpectrumProblem(p=[0.15, 0.25, 0.6], ratios=[0.2, 0.35, 0.3])
        lo, hi = alpha_range(prob)
        targets = [-T_derivative(prob, q) for q in (0.0, 1.0, 0.5, 2.0, -1.7)]
        targets.append(lo + 0.25 * (hi - lo))
        for a in targets:
            assert legendre(prob, a) == pytest.approx(
                legendre_gridmin(prob, a), abs=1e-6
            )


class TestQSolve:
    @pytest.mark.parametrize("p, lam", oracle_problems() + near_tie_problems())
    def test_matches_bracket_collapse_oracle(self, p, lam):
        prob = SpectrumProblem(p=p, ratios=lam)
        lo, hi = alpha_range(prob)
        inside = np.array([1e-6, 1e-7, 1e-8, 1e-9])
        alphas = np.concatenate([lo + (hi - lo) * np.arange(1, 20) / 20, lo + inside, hi - inside])
        # alpha inside the edge band takes the endpoint branch, with no q-solve
        edge = _EDGE_ATOL * (1.0 + hi - lo)
        for a in alphas[(alphas - lo > edge) & (hi - alphas > edge)]:
            q = reference_solve_q(prob, a)
            if q is None:
                assert _solve_q(prob, a) is None
                continue
            t = solve_T(prob, q)
            f = q * a + t
            # near an endpoint |q| runs to thousands, and q * a + t cancels
            # two terms that large: a few of their ulps are allowed on top
            ulps = 8 * np.spacing(abs(q * a) + abs(t))
            assert abs(legendre(prob, a) - f) <= 1e-12 * (1.0 + abs(f)) + ulps
            w = np.exp(q * np.log(prob.p) + t * np.log(prob.ratios))
            w = w / w.sum()
            got = optimal_measure(prob, a).p
            assert np.all(np.abs(got - w) <= 1e-12 * (1.0 + np.abs(w)))

    @pytest.mark.parametrize("p, lam", oracle_problems()[:12])
    def test_returns_T_at_its_q(self, p, lam):
        prob = SpectrumProblem(p=p, ratios=lam)
        lo, hi = alpha_range(prob)
        logp, loglam = np.log(prob.p), np.log(prob.ratios)
        for a in lo + (hi - lo) * np.array([0.05, 0.3, 0.5, 0.7, 0.95]):
            q, t = _solve_q(prob, a)
            # t solves the moment equation at q to the root solver's certificate
            value, _ = _log_moment(np.array([q * logp + t * loglam]))
            assert abs(value[0]) <= _RESIDUAL_TOL * (1.0 + abs(t))
            assert legendre(prob, a) == q * a + t

    def test_bisection_alone_converges(self, monkeypatch):
        # with no Newton step ever usable the loop only bisects, and the
        # bracket collapse ends it at the bracket-collapse answer
        asked = []
        monkeypatch.setattr(mf, "_joint_step", lambda *args: asked.append(args))
        a = -T_derivative(THIRDS, 0.7)
        q = reference_solve_q(THIRDS, a)
        f = q * a + solve_T(THIRDS, q)
        assert abs(legendre(THIRDS, a) - f) <= 1e-12 * (1.0 + abs(f))
        w = np.exp(q * np.log(THIRDS.p) + solve_T(THIRDS, q) * np.log(THIRDS.ratios))
        assert np.all(np.abs(optimal_measure(THIRDS, a).p - w / w.sum()) <= 1e-12)
        assert asked

    def test_unsettled_solve_raises(self, monkeypatch):
        # Newton steps 1000 times too short: each covers 1/1000 of the way
        # to the root, and the residual never certifies, so neither the step
        # nor the bracket settles in 200 rounds: an error, not a midpoint
        step = mf._joint_step
        monkeypatch.setattr(
            mf, "_joint_step", lambda *args: tuple(1e-3 * s for s in step(*args))
        )
        a = -T_derivative(THIRDS, 0.7)
        with pytest.raises(EstimationError, match="did not settle"):
            legendre(THIRDS, a)
        with pytest.raises(EstimationError, match="did not settle"):
            optimal_measure(THIRDS, a)

    def test_moment_evaluations_per_solve(self, monkeypatch):
        # the problems and alpha range of the benchmark's exact workload;
        # before the joint Newton in (q, T) the median was 52 evaluations
        rng = np.random.default_rng([0, 0])
        problems = [
            SpectrumProblem(rng.dirichlet(np.ones(m)), rng.uniform(0.15, 0.6, size=m))
            for m in (2, 3, 4, 2, 3, 4)
        ]
        calls = []

        def counted(z):
            calls.append(z.shape)
            return _log_moment(z)

        monkeypatch.setattr(mf, "_log_moment", counted)
        for solve in (legendre, optimal_measure):
            counts = []
            for prob in problems:
                ends = [-T_derivative(prob, q) for q in (8.0, -8.0)]
                for a in np.linspace(*ends, 20):
                    before = len(calls)
                    solve(prob, a)
                    counts.append(len(calls) - before)
            assert np.median(counts) <= 14
            assert np.percentile(counts, 90) <= 20

    def test_bisection_root_solve_starts_on_the_tangent(self, monkeypatch):
        # the alpha set of test_matches_bracket_collapse_oracle; a bisection's
        # root solve that starts from T = 0 costs a total of 35,293 evaluations
        # over these 1,837 solves, and up to 207 in one of them
        calls = []

        def counted(z):
            calls.append(z.shape)
            return _log_moment(z)

        monkeypatch.setattr(mf, "_log_moment", counted)
        counts = []
        for p, lam in oracle_problems() + near_tie_problems():
            prob = SpectrumProblem(p=p, ratios=lam)
            lo, hi = alpha_range(prob)
            inside = np.array([1e-6, 1e-7, 1e-8, 1e-9])
            alphas = np.concatenate(
                [lo + (hi - lo) * np.arange(1, 20) / 20, lo + inside, hi - inside]
            )
            edge = _EDGE_ATOL * (1.0 + hi - lo)
            for a in alphas[(alphas - lo > edge) & (hi - alphas > edge)]:
                before = len(calls)
                legendre(prob, a)
                counts.append(len(calls) - before)
        assert len(counts) == 1837
        assert max(counts) <= 130
        assert sum(counts) <= 33_000


class TestOptimalMeasure:
    def test_q_one_recovers_the_measure(self):
        a1 = -T_derivative(THIRDS, 1.0)
        mu = optimal_measure(THIRDS, a1)
        assert mu.p == pytest.approx(THIRDS.p, abs=1e-9)

    def test_q_zero_gives_dimension_weights(self):
        a0 = -T_derivative(THIRDS, 0.0)
        mu = optimal_measure(THIRDS, a0)
        assert mu.p == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_endpoint_point_mass(self):
        lo, hi = alpha_range(THIRDS)
        mu = optimal_measure(THIRDS, hi)  # max exponent is the rare symbol 0
        assert mu.p == pytest.approx([1.0, 0.0], abs=0)
        nu = optimal_measure(THIRDS, lo)
        assert nu.p == pytest.approx([0.0, 1.0], abs=0)

    def test_weights_sum_to_one(self):
        prob = SpectrumProblem(p=[0.15, 0.25, 0.6], ratios=[0.2, 0.35, 0.3])
        lo, hi = alpha_range(prob)
        for a in np.linspace(lo + 1e-3, hi - 1e-3, 9):
            mu = optimal_measure(prob, a)
            assert abs(mu.p.sum() - 1.0) <= 1e-12

    def test_dimension_attains_spectrum(self):
        prob = SpectrumProblem(p=[0.15, 0.25, 0.6], ratios=[0.2, 0.35, 0.3])
        lo, hi = alpha_range(prob)
        for a in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 7):
            mu = optimal_measure(prob, a)
            chi = -float(np.dot(mu.p, np.log(prob.ratios)))
            assert mu.entropy() / chi == pytest.approx(legendre(prob, a), abs=1e-10)

    def test_degenerate_returns_problem_weights(self):
        g = (math.sqrt(5) - 1) / 2
        prob = SpectrumProblem(p=[g, g * g], ratios=[0.5, 0.25])
        mu = optimal_measure(prob, prob.similarity_dim)
        assert mu.p == pytest.approx(prob.p, abs=1e-14)


class TestCurve:
    def test_thirds_curve_shape(self):
        curve = spectrum_curve(THIRDS)
        assert not curve.degenerate
        fin = ~curve.endpoint
        assert np.all(np.diff(curve.T[fin]) < 0)
        assert np.all(np.diff(curve.alpha[fin]) <= 1e-12)
        assert curve.f.min() >= 0.0
        assert curve.f.max() <= THIRDS.similarity_dim + 1e-9
        assert curve.f[fin].max() == pytest.approx(THIRDS.similarity_dim, abs=1e-6)

    def test_endpoint_rows(self):
        curve = spectrum_curve(THIRDS)
        lo, hi = alpha_range(THIRDS)
        assert curve.endpoint[0] and curve.endpoint[-1]
        assert curve.q[0] == -math.inf and curve.q[-1] == math.inf
        assert curve.alpha[0] == pytest.approx(hi, abs=1e-14)
        assert curve.alpha[-1] == pytest.approx(lo, abs=1e-14)
        assert curve.f[0] == 0.0 and curve.f[-1] == 0.0
        # tail extension drove alpha to within 1e-6 of both endpoints
        assert curve.alpha[1] >= hi - 1e-6
        assert curve.alpha[-2] <= lo + 1e-6

    def test_concave_in_alpha(self):
        curve = spectrum_curve(THIRDS)
        fin = ~curve.endpoint
        a = curve.alpha[fin][::-1]
        f = curve.f[fin][::-1]
        keep = np.concatenate([[True], np.diff(a) > 1e-13])
        a, f = a[keep], f[keep]
        slopes = np.diff(f) / np.diff(a)
        assert np.all(np.diff(slopes) <= 1e-8)

    def test_anchor_values(self):
        curve = spectrum_curve(THIRDS)
        assert curve.alpha_peak == pytest.approx(0.7618595071429148, abs=1e-12)
        assert curve.similarity_dim == pytest.approx(
            math.log(2) / math.log(3), abs=1e-13
        )
        assert solve_T(THIRDS, 0.0) == pytest.approx(curve.similarity_dim, abs=1e-12)
        assert abs(solve_T(THIRDS, 1.0)) <= 1e-12

    def test_degenerate_single_point(self):
        curve = spectrum_curve(HALVES)
        assert curve.degenerate
        assert curve.q.size == 1
        assert curve.alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert curve.f[0] == pytest.approx(1.0, abs=1e-12)
        assert curve.alpha_min == curve.alpha_max == curve.alpha_peak

    def test_f_alpha_tangent_line(self):
        # at q = 1 the spectrum touches the diagonal f = alpha
        curve = spectrum_curve(THIRDS, q_grid=np.arange(-5.0, 5.01, 0.01))
        fin = ~curve.endpoint
        gap = curve.alpha[fin] - curve.f[fin]
        assert gap.min() >= -1e-9
        assert gap.min() <= 1e-6


# Two-symbol problems whose local dimensions nearly tie: near their
# endpoints the root of alpha(q) = alpha lies past 2^15 (equal ratios 1/3)
# or past 2^31 (equal ratios 0.9999), so the far batches of the ladder run.
FAR_RUNG_PROBLEMS = [
    ([0.5 + 1e-7, 0.5 - 1e-7], [1 / 3, 1 / 3]),
    ([0.5 + 1e-9, 0.5 - 1e-9], [0.9999, 0.9999]),
]


def memo_problems():
    """THIRDS, the hard oracle problems and the far-rung problems."""
    problems = oracle_problems()
    hard = problems[: len(HARD_PROBLEMS)]
    # oracle_problems draws 4 problems per (m, concentration), m = 2..6,
    # concentrations 0.1, 1, 10 in turn: keep the concentration-0.1 ones
    sparse = [problems[len(HARD_PROBLEMS) + 12 * k + j] for k in range(5) for j in range(4)]
    return [(THIRDS.p, THIRDS.ratios)] + hard + sparse + FAR_RUNG_PROBLEMS


def memo_alphas(prob):
    """Interior alphas, alphas near both ends and the edge-band endpoints."""
    lo, hi = alpha_range(prob)
    edge = _EDGE_ATOL * (1.0 + hi - lo)
    near = np.array([0.0, 0.5 * edge, edge, 1.001 * edge, 2 * edge, 10 * edge, 1e3 * edge,
                     1e-9, 1e-8, 1e-6])
    alphas = np.concatenate([lo + (hi - lo) * np.arange(1, 10) / 10, lo + near, hi - near])
    return alphas[(alphas >= lo) & (alphas <= hi)]


def spectrum_bits(legendre_prob, alpha, measure_prob=None):
    """Bytes of legendre and of optimal_measure's weights at alpha."""
    return (
        np.float64(legendre(legendre_prob, alpha)).tobytes(),
        optimal_measure(measure_prob or legendre_prob, alpha).p.tobytes(),
    )


def assert_memo_matches_fresh(p, lam):
    """Each alpha gives the bits of a fresh problem per call on one shared
    problem visited forward, reversed and shuffled; returns the last one."""
    alphas = memo_alphas(SpectrumProblem(p=p, ratios=lam))
    fresh = [
        spectrum_bits(SpectrumProblem(p=p, ratios=lam), a, SpectrumProblem(p=p, ratios=lam))
        for a in alphas
    ]
    order = np.arange(alphas.size)
    shuffled = np.random.default_rng(29).permutation(order)
    for visit in (order, order[::-1], shuffled):
        shared = SpectrumProblem(p=p, ratios=lam)
        for i in visit:
            assert spectrum_bits(shared, alphas[i]) == fresh[i], alphas[i]
            # the ladder in force, which a test may shorten
            assert set(shared._rungs) <= set(mf._LADDER)
            assert len(shared._rungs) <= len(mf._LADDER)
    return shared


class TestKeptLadder:
    @pytest.mark.parametrize("p, lam", memo_problems())
    def test_shared_problem_gives_the_bits_of_fresh_ones(self, p, lam):
        shared = assert_memo_matches_fresh(p, lam)
        for batch in shared._rungs.values():
            assert not any(x.flags.writeable for x in batch)

    def test_far_rungs_are_reached_and_solve_alpha(self):
        tops = set()
        for p, lam in FAR_RUNG_PROBLEMS:
            lo, hi = alpha_range(SpectrumProblem(p=p, ratios=lam))
            edge = _EDGE_ATOL * (1.0 + hi - lo)
            for a in memo_alphas(SpectrumProblem(p=p, ratios=lam)):
                prob = SpectrumProblem(p=p, ratios=lam)
                if not lo + edge < a < hi - edge:
                    continue
                q, t = _solve_q(prob, a)
                if len(prob._rungs) > 2:
                    # a root past 2^15 that the kept far rungs bracketed
                    assert abs(q) > 2.0**15
                    assert abs(-T_derivative(prob, q) - a) <= 1e-13 * (1.0 + abs(a))
                    assert legendre(prob, a) == q * a + t
                tops |= set(prob._rungs)
        assert tops == set(_LADDER)

    @pytest.mark.parametrize("p, lam", [(THIRDS.p, THIRDS.ratios)] + FAR_RUNG_PROBLEMS)
    def test_exhausted_ladder_falls_through_to_an_endpoint(self, p, lam, monkeypatch):
        # a ladder of rungs up to 2^2 and 2^3 brackets no alpha near the ends,
        # so _q_ladder returns None there and the endpoint branch answers
        monkeypatch.setattr(mf, "_LADDER", (2, 3))
        prob = SpectrumProblem(p=p, ratios=lam)
        lo, hi = alpha_range(prob)
        a = lo + 1e-6 * (hi - lo)
        assert mf._q_ladder(prob, a) is None
        assert legendre(prob, a) == legendre(prob, lo)
        assert set(prob._rungs) == {2, 3}
        assert_memo_matches_fresh(p, lam)


class TestProblemInvariantsStayPrivate:
    def test_repr_and_equality_are_unchanged(self):
        prob = SpectrumProblem(p=[0.2, 0.3, 0.5], ratios=[0.3, 0.25, 0.4])
        text, twin = repr(prob), copy.copy(prob)
        lo, hi = alpha_range(prob)
        for a in np.linspace(lo, hi, 7):
            legendre(prob, a)
            optimal_measure(prob, a)
        assert prob._rungs
        assert repr(prob) == text
        assert prob == twin and prob == prob
        assert [f.name for f in fields(prob)] == ["p", "ratios", "similarity_dim", "degenerate"]

    def test_pickle_round_trip_keeps_the_bits(self):
        lo, hi = alpha_range(THIRDS)
        alphas = lo + (hi - lo) * np.array([1e-9, 0.3, 0.5, 0.9, 1 - 1e-7])
        prob = SpectrumProblem(p=THIRDS.p, ratios=THIRDS.ratios)
        cold = pickle.loads(pickle.dumps(prob))
        want = [spectrum_bits(prob, a) for a in alphas]
        warm = pickle.loads(pickle.dumps(prob))
        assert warm._rungs.keys() == prob._rungs.keys()
        assert [spectrum_bits(cold, a) for a in alphas] == want
        assert [spectrum_bits(warm, a) for a in alphas] == want
