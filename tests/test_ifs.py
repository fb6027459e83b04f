"""Similarity systems: projection, dimensions, enclosures, transversality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from fractdim.errors import (
    AlphabetMismatchError,
    EstimationError,
    PreconditionError,
    WordTooShortError,
)
from fractdim.ifs import (
    SimilarityIFS,
    TranslationFamily,
    lyapunov_exponent,
    natural_projection,
    sample_points,
    symbolic_dimension,
    transversality_exponent,
)
from fractdim.measures import BernoulliMeasure, MarkovMeasure, _log_moment


def cantor():
    """Middle-thirds pair f_0 = x/3, f_1 = x/3 + 2/3."""
    return SimilarityIFS(ratios=[1 / 3, 1 / 3], translations=[0.0, 2 / 3])


def square_corners():
    """Four planar maps of ratio 1/3 at the unit-square corners."""
    t = np.array([[0, 0], [2 / 3, 0], [0, 2 / 3], [2 / 3, 2 / 3]], dtype=float)
    return SimilarityIFS(ratios=[1 / 3] * 4, translations=t)


UNIFORM2 = BernoulliMeasure([0.5, 0.5])


class TestConstruction:
    def test_cantor_bounding_ball(self):
        F = cantor()
        assert F.center == pytest.approx([0.5], abs=1e-14)
        assert F.radius == pytest.approx(0.5, abs=1e-14)
        assert F.fixed_points() == pytest.approx(
            np.array([[0.0], [1.0]]), abs=1e-14
        )

    def test_square_bounding_ball(self):
        F = square_corners()
        assert F.center == pytest.approx([0.5, 0.5], abs=1e-14)
        assert F.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_rotation_accepted(self):
        c, s = math.cos(0.7), math.sin(0.7)
        rot = [[[c, -s], [s, c]], [[1, 0], [0, 1]]]
        F = SimilarityIFS(
            ratios=[0.4, 0.4], translations=[[0, 0], [1, 0]], orthogonal=rot
        )
        assert F.ambient_dim == 2

    def test_metric_built_once_and_kept_out_of_repr(self):
        F = cantor()
        before = repr(F)
        assert F.metric is F.metric
        assert F.metric.ratios == (1 / 3, 1 / 3)
        assert repr(F) == before
        assert "metric" not in before
        assert cantor().metric is not F.metric

    def test_non_orthogonal_rejected(self):
        bad = [[[1, 0], [0.5, 1]], [[1, 0], [0, 1]]]
        with pytest.raises(PreconditionError):
            SimilarityIFS(
                ratios=[0.4, 0.4], translations=[[0, 0], [1, 0]], orthogonal=bad
            )

    def test_expanding_map_rejected(self):
        with pytest.raises(PreconditionError):
            SimilarityIFS(ratios=[0.5, 1.1], translations=[0.0, 1.0])


class TestNaturalProjection:
    def test_fixed_point_of_first_map(self):
        x, err = natural_projection(cantor(), (0,) * 40, tol=1e-12)
        assert err <= 1e-12
        assert abs(x[0]) <= 1e-12

    def test_period_two_point(self):
        word = (1, 0) * 20
        x, err = natural_projection(cantor(), word, tol=1e-12)
        assert x[0] == pytest.approx(0.75, abs=1e-12)

    def test_one_then_zeros(self):
        word = (1,) + (0,) * 39
        x, _ = natural_projection(cantor(), word, tol=1e-12)
        assert x[0] == pytest.approx(2 / 3, abs=1e-12)

    def test_too_short_word(self):
        with pytest.raises(WordTooShortError) as info:
            natural_projection(cantor(), (0, 1, 0), tol=1e-12)
        assert info.value.required_length > 3

    @given(st.lists(st.integers(0, 1), min_size=12, max_size=30))
    @settings(max_examples=60)
    def test_truncations_agree_within_certificates(self, bits):
        F = cantor()
        word = tuple(bits)
        x1, e1 = natural_projection(F, word, tol=1.0)
        x2, e2 = natural_projection(F, word[: len(word) // 2], tol=1.0)
        assert abs(x1[0] - x2[0]) <= e1 + e2


def pressure(ifs, s):
    """log sum lambda_i^s, as the moment solver evaluates it."""
    return float(_log_moment(s * np.log(ifs.ratios))[0])


class TestPressureAndDimension:
    def test_pressure_values(self):
        halves = SimilarityIFS(ratios=[0.5, 0.5], translations=[0.0, 0.5])
        assert pressure(halves, 1.0) == pytest.approx(0.0, abs=1e-14)
        F = cantor()
        assert pressure(F, 0.0) == pytest.approx(math.log(2), abs=1e-14)
        assert pressure(F, 1.0) == pytest.approx(math.log(2 / 3), abs=1e-14)

    def test_pressure_matches_logsumexp(self):
        rng = np.random.default_rng(20240604)
        for _ in range(2_000):
            m = int(rng.integers(2, 9))
            F = SimilarityIFS(
                ratios=rng.uniform(1e-4, 0.9999, size=m),
                translations=rng.random(m),
            )
            s = 10.0 ** rng.uniform(-3, 3)
            z = s * np.log(F.ratios)
            bound = 8 * np.spacing(max(abs(z.max()), 1.0))
            assert abs(pressure(F, s) - logsumexp(z)) <= bound


class TestSymbolicDimension:
    def test_uniform_cantor(self):
        val = symbolic_dimension(UNIFORM2, cantor())
        assert val.value == pytest.approx(math.log(2) / math.log(3), abs=1e-13)
        assert val.projected == val.value

    def test_skewed_cantor(self):
        mu = BernoulliMeasure([0.25, 0.75])
        val = symbolic_dimension(mu, cantor())
        h = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert val.value == pytest.approx(h / math.log(3), abs=1e-13)
        assert val.value == pytest.approx(0.5118595071429149, abs=1e-12)

    def test_zero_entropy(self):
        mu = BernoulliMeasure([1.0, 0.0])
        assert symbolic_dimension(mu, cantor()).value == 0.0

    def test_projection_clips_at_ambient(self):
        fat = SimilarityIFS(ratios=[0.9, 0.9], translations=[0.0, 0.1])
        val = symbolic_dimension(UNIFORM2, fat)
        assert val.value > 1.0
        assert val.projected == 1.0

    def test_lyapunov_values(self):
        assert lyapunov_exponent(UNIFORM2, cantor()) == pytest.approx(
            math.log(3), abs=1e-14
        )
        mixed = SimilarityIFS(ratios=[0.5, 0.25], translations=[0.0, 0.75])
        mu = BernoulliMeasure([0.25, 0.75])
        expect = 0.25 * math.log(2) + 0.75 * math.log(4)
        assert lyapunov_exponent(mu, mixed) == pytest.approx(expect, abs=1e-13)
        nu = BernoulliMeasure([1.0, 0.0])
        assert lyapunov_exponent(nu, mixed) == pytest.approx(math.log(2), abs=1e-14)

    def test_markov_measure_accepted(self):
        kernel = np.array([[0.9, 0.1], [0.5, 0.5]])
        nu = MarkovMeasure.from_kernel(kernel, order=1)
        chi = lyapunov_exponent(nu, cantor())
        assert chi == pytest.approx(math.log(3), abs=1e-12)
        assert symbolic_dimension(nu, cantor()).value == pytest.approx(
            nu.entropy() / math.log(3), abs=1e-12
        )

    def test_alphabet_mismatch(self):
        mu = BernoulliMeasure([0.2, 0.3, 0.5])
        with pytest.raises(AlphabetMismatchError):
            lyapunov_exponent(mu, cantor())


def enclosures(F, depth):
    """(word, center, radius) of every depth-n enclosure f_word(ball), in
    lexicographic order, each node grown from its parent by F.child."""
    nodes = [((), F.center, 1.0, np.eye(F.ambient_dim))]
    for _ in range(depth):
        nodes = [
            (word + (s,), *F.child(s, c, psi, amat))
            for word, c, psi, amat in nodes
            for s in range(F.m)
        ]
    return [(word, c, psi * F.radius) for word, c, psi, _ in nodes]


def assert_nested(F, depth):
    """Each depth-n enclosure lies inside its parent's, up to 1e-12."""
    parents = enclosures(F, depth - 1)
    for k, (word, c, r) in enumerate(enclosures(F, depth)):
        up_word, up_c, up_r = parents[k // F.m]
        assert word[:-1] == up_word
        assert np.linalg.norm(c - up_c) + r <= up_r + 1e-12, word


class TestCylinderBalls:
    def test_depth_zero(self):
        [(word, center, radius)] = enclosures(cantor(), 0)
        assert word == ()
        assert center == pytest.approx([0.5], abs=1e-14)
        assert radius == pytest.approx(0.5, abs=1e-14)

    def test_depth_one(self):
        balls = enclosures(cantor(), 1)
        assert [word for word, _, _ in balls] == [(0,), (1,)]
        assert np.array([c for _, c, _ in balls]) == pytest.approx(
            np.array([[1 / 6], [5 / 6]]), abs=1e-14
        )
        assert [r for _, _, r in balls] == pytest.approx([1 / 6, 1 / 6], abs=1e-14)

    def test_depth_two_radius(self):
        balls = enclosures(cantor(), 2)
        assert len(balls) == 4
        assert [r for _, _, r in balls] == pytest.approx([1 / 18] * 4, abs=1e-14)

    def test_nesting(self):
        for depth in range(1, 9):
            assert_nested(cantor(), depth)

    def test_rotated_nesting(self):
        c, s = math.cos(1.1), math.sin(1.1)
        rot = [[[c, -s], [s, c]], [[0, 1], [1, 0]]]
        F = SimilarityIFS(
            ratios=[0.35, 0.3], translations=[[0, 0], [1, 0]], orthogonal=rot
        )
        assert_nested(F, 4)

    def test_matches_word_map(self):
        F = square_corners()
        balls = enclosures(F, 3)
        for k in (0, 17, 42, 63):
            word, center, _ = balls[k]
            a, b = F.word_map(word)
            assert center == pytest.approx(a @ F.center + b, abs=1e-13)
        c, s = math.cos(0.4), math.sin(0.4)
        rotated = SimilarityIFS(
            ratios=[0.3, 0.3], translations=[[0, 0], [1, 0]],
            orthogonal=[[[c, -s], [s, c]], [[c, s], [-s, c]]],
        )
        for k, (word, center, _) in enumerate(enclosures(rotated, 6)):
            a, b = rotated.word_map(word)
            assert center == pytest.approx(a @ rotated.center + b, abs=1e-13), k


def reference_fixed_points(ratios, orthogonal, translations):
    """One solve per map, the loop the batched fixed-point solve replaced."""
    m, n = translations.shape
    out = np.empty((m, n))
    for i in range(m):
        out[i] = np.linalg.solve(np.eye(n) - ratios[i] * orthogonal[i], translations[i])
    return out


def reference_straight_centers(F, depth):
    """The enclosure walk for identity linear parts, in scalar scales."""
    m, n = F.m, F.ambient_dim
    centers = F.center[None, :].copy()
    scales = np.ones(1)
    for _ in range(depth):
        k = centers.shape[0]
        new_c = centers[:, None, :] + scales[:, None, None] * F.steps[None]
        centers = new_c.reshape(k * m, n)
        scales = (scales[:, None] * F.ratios[None, :]).reshape(k * m)
    return centers, scales * F.radius


class TestLoopOracles:
    @pytest.mark.parametrize("rotated", [False, True])
    def test_batched_fixed_points_equal_the_loop(self, rotated):
        rng = np.random.default_rng(20261019)
        for _ in range(40):
            m, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            orth = None
            if rotated:
                qr = [np.linalg.qr(rng.normal(size=(n, n))) for _ in range(m)]
                orth = np.array([q * np.sign(np.diag(r)) for q, r in qr])
            F = SimilarityIFS(rng.uniform(0.05, 0.45, m), rng.normal(size=(m, n)), orth)
            ref = reference_fixed_points(F.ratios, F.orthogonal, F.translations)
            assert np.array_equal(F.fixed_points(), ref)

    def test_child_walk_equals_the_straight_walk(self):
        rng = np.random.default_rng(20261020)
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            F = SimilarityIFS(rng.uniform(0.05, 0.45, m), rng.normal(size=(m, n)))
            depth = int(rng.integers(0, 6))
            balls = enclosures(F, depth)
            centers, radii = reference_straight_centers(F, depth)
            assert np.array_equal(np.array([c for _, c, _ in balls]), centers)
            assert np.array_equal(np.array([r for _, _, r in balls]), radii)


class TestSamplePoints:
    def test_cantor_gap(self):
        cloud = sample_points(cantor(), UNIFORM2, 2000, tol=1e-6, seed=5)
        xs = cloud.points[:, 0]
        assert np.all((xs >= 0) & (xs <= 1))
        tol = cloud.truncation_error
        assert not np.any((xs > 1 / 3 + tol) & (xs < 2 / 3 - tol))
        assert cloud.truncation_error <= 5e-7

    def test_atomic_measure(self):
        mu = BernoulliMeasure([1.0, 0.0])
        cloud = sample_points(cantor(), mu, 50, tol=1e-9, seed=1)
        assert np.all(np.abs(cloud.points) <= cloud.truncation_error)

    def test_product_gaps(self):
        F = square_corners()
        mu = BernoulliMeasure([0.25] * 4)
        cloud = sample_points(F, mu, 2000, tol=1e-6, seed=9)
        tol = cloud.truncation_error
        for axis in (0, 1):
            xs = cloud.points[:, axis]
            assert np.all((xs >= -tol) & (xs <= 1 + tol))
            assert not np.any((xs > 1 / 3 + tol) & (xs < 2 / 3 - tol))

    def test_deterministic_and_worker_independent(self):
        a = sample_points(cantor(), UNIFORM2, 200_000, tol=1e-8, seed=3, workers=1)
        b = sample_points(cantor(), UNIFORM2, 200_000, tol=1e-8, seed=3, workers=4)
        assert np.array_equal(a.points, b.points)
        c = sample_points(cantor(), UNIFORM2, 200_000, tol=1e-8, seed=4)
        assert not np.array_equal(a.points, c.points)


class TestTranslationFamily:
    def test_constraint_flag(self):
        ok = TranslationFamily(cantor(), low=np.zeros(2), high=np.ones(2))
        assert ok.constraint_satisfied
        fat = SimilarityIFS(ratios=[0.6, 0.6], translations=[0.0, 0.4])
        bad = TranslationFamily(fat, low=np.zeros(2), high=np.ones(2))
        assert not bad.constraint_satisfied

    @pytest.mark.parametrize(
        "low, high, message",
        [
            ([math.nan, 0.0], [1.0, 1.0], "offset box bounds must be finite"),
            ([0.0, 0.0], [math.inf, 1.0], "offset box bounds must be finite"),
            ([0.0, -math.inf], [1.0, 1.0], "offset box bounds must be finite"),
            ([0.0, 2.0], [1.0, 1.0], "offset box has low > high"),
        ],
        ids=["nan-low", "infinite-high", "infinite-low", "low-above-high"],
    )
    def test_bad_offset_box_rejected(self, low, high, message):
        # NaN compares false both ways, so low > high alone lets it through
        with pytest.raises(PreconditionError, match=message):
            TranslationFamily(cantor(), low=low, high=high)


def dyadic_grid(r0, levels):
    return r0 * 0.5 ** np.arange(levels + 1)


class TestTransversality:
    def test_affine_family_has_slope_one(self):
        fam = TranslationFamily(cantor(), low=np.zeros(2), high=np.ones(2))
        res = transversality_exponent(
            fam,
            (0,) * 40,
            (1,) * 40,
            dyadic_grid(0.5, 8),
            param_samples=400_000,
            seed=7,
        )
        assert not res.degenerate
        assert res.constraint_satisfied
        assert res.exponent == pytest.approx(1.0, abs=0.05)
        assert math.isfinite(res.k_hat)

    def test_saturated_bins_excluded(self):
        fam = TranslationFamily(cantor(), low=np.zeros(2), high=np.ones(2))
        res = transversality_exponent(
            fam,
            (0,) * 40,
            (1,) * 40,
            dyadic_grid(4.0, 10),
            param_samples=100_000,
            seed=2,
        )
        assert res.measures[0] == 1.0
        assert not res.used[0]
        assert res.exponent == pytest.approx(1.0, abs=0.08)

    def test_degenerate_overlap_family(self):
        F = SimilarityIFS(ratios=[0.5, 0.5], translations=[0.0, 0.5])
        fam = TranslationFamily(F, low=np.zeros(2), high=np.ones(2))
        word_a = (0,) + (1,) * 49
        word_b = (1,) + (0,) * 49
        res = transversality_exponent(
            fam, word_a, word_b, dyadic_grid(0.5, 6), param_samples=10_000, seed=1
        )
        assert res.degenerate
        assert math.isnan(res.exponent)

    def test_constraint_flag_propagates(self):
        fat = SimilarityIFS(ratios=[0.6, 0.6], translations=[0.0, 0.4])
        fam = TranslationFamily(fat, low=np.zeros(2), high=np.ones(2))
        res = transversality_exponent(
            fam, (0,) * 60, (1,) * 60, dyadic_grid(0.5, 6), 50_000, seed=3
        )
        assert not res.constraint_satisfied
        assert res.exponent == pytest.approx(1.0, abs=0.1)

    def test_same_first_symbol_rejected(self):
        fam = TranslationFamily(cantor(), low=np.zeros(2), high=np.ones(2))
        with pytest.raises(PreconditionError):
            transversality_exponent(
                fam, (0, 1), (0, 0), dyadic_grid(0.5, 6), 1000, seed=0
            )

    def test_non_dyadic_grid_rejected(self):
        fam = TranslationFamily(cantor(), low=np.zeros(2), high=np.ones(2))
        with pytest.raises(PreconditionError):
            transversality_exponent(
                fam, (0,) * 40, (1,) * 40, np.array([0.5, 0.3, 0.1]), 1000, seed=0
            )

    def test_short_words_rejected(self):
        fam = TranslationFamily(cantor(), low=np.zeros(2), high=np.ones(2))
        with pytest.raises(WordTooShortError):
            transversality_exponent(
                fam, (0,) * 5, (1,) * 5, dyadic_grid(0.5, 8), 1000, seed=0
            )

    def test_worker_independent_counts(self):
        fam = TranslationFamily(cantor(), low=np.zeros(2), high=np.ones(2))
        kw = dict(param_samples=300_000, seed=11)
        r = dyadic_grid(0.5, 7)
        a = transversality_exponent(fam, (0,) * 40, (1,) * 40, r, workers=1, **kw)
        b = transversality_exponent(fam, (0,) * 40, (1,) * 40, r, workers=3, **kw)
        assert np.array_equal(a.hits, b.hits)
        assert a.exponent == b.exponent
