"""Similarity systems: projection, dimensions, enclosures, transversality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from fractdim import ifs as ifs_module
from fractdim.errors import (
    AlphabetMismatchError,
    EstimationError,
    PreconditionError,
    WordTooShortError,
)
from fractdim.ifs import (
    SimilarityIFS,
    TranslationFamily,
    _affine_decomposition,
    lyapunov_exponent,
    natural_projection,
    sample_points,
    symbolic_dimension,
    transversality_exponent,
)
from fractdim.measures import BernoulliMeasure, MarkovMeasure, _log_moment
from fractdim.runtime import substream
from fractdim.symbolic import AdaptedMetric, as_word


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

    @pytest.mark.parametrize("ratios", [[1 / 3, 1 / 3], [0.2, 0.7, 0.4], [0.3, 0.9 - 2**-52, 0.9 - 2**-51]])
    def test_gamma_is_the_largest_ratio_bitwise(self, ratios):
        F = SimilarityIFS(ratios=ratios, translations=np.arange(len(ratios), dtype=float))
        assert type(F.gamma) is float
        assert same_bits(F.gamma, max(ratios))
        assert same_bits(F.gamma, AdaptedMetric(ratios).gamma)

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


# Verbatim copies of the deleted SimilarityIFS.child and word_map (with its
# _compose), the oracles of the enclosure walk below.


def child(F, s, c, psi, amat):
    """Child s of the cylinder node (c, psi, amat)."""
    return c + amat @ F.steps[s], psi * F.ratios[s], amat @ F.linear[s]


def word_map(F, word):
    """Affine composite of f along the word: x -> A x + b."""
    n = F.ambient_dim
    a = np.eye(n)
    b = np.zeros(n)
    for s in word:
        b = a @ F.translations[s] + b
        a = F.ratios[s] * (a @ F.orthogonal[s])
    return a, b


def enclosures(F, depth):
    """(word, center, radius) of every depth-n enclosure f_word(ball), in
    lexicographic order, each node grown from its parent by child."""
    nodes = [((), F.center, 1.0, np.eye(F.ambient_dim))]
    for _ in range(depth):
        nodes = [
            (word + (s,), *child(F, s, c, psi, amat))
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
            a, b = word_map(F, word)
            assert center == pytest.approx(a @ F.center + b, abs=1e-13)
        c, s = math.cos(0.4), math.sin(0.4)
        rotated = SimilarityIFS(
            ratios=[0.3, 0.3], translations=[[0, 0], [1, 0]],
            orthogonal=[[[c, -s], [s, c]], [[c, s], [-s, c]]],
        )
        for k, (word, center, _) in enumerate(enclosures(rotated, 6)):
            a, b = word_map(rotated, word)
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

    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf, "3"])
    def test_non_integral_count_rejected(self, count):
        with pytest.raises(PreconditionError, match="point count must be an integer, got"):
            sample_points(cantor(), UNIFORM2, count, tol=1e-6, seed=0)

    def test_integral_float_count_accepted(self):
        a = sample_points(cantor(), UNIFORM2, 300.0, tol=1e-6, seed=2)
        b = sample_points(cantor(), UNIFORM2, 300, tol=1e-6, seed=2)
        assert a.points.tobytes() == b.points.tobytes()

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

    @pytest.mark.parametrize("samples", [100_000.5, math.nan, math.inf, "1000"])
    def test_non_integral_sample_count_rejected(self, samples):
        # 100000.5 used to draw 100000 samples and divide their hits by 100000.5
        fam = TranslationFamily(cantor(), low=np.zeros(2), high=np.ones(2))
        with pytest.raises(
            PreconditionError, match="parameter sample count must be an integer, got"
        ):
            transversality_exponent(fam, (0,) * 40, (1,) * 40, dyadic_grid(0.5, 6), samples, 0)

    def test_integral_float_sample_count_accepted(self):
        fam = TranslationFamily(cantor(), low=np.zeros(2), high=np.ones(2))
        args = fam, (0,) * 40, (1,) * 40, dyadic_grid(0.5, 6)
        a = transversality_exponent(*args, 20_000.0, seed=4)
        b = transversality_exponent(*args, 20_000, seed=4)
        assert a.measures.tobytes() == b.measures.tobytes()
        assert same_bits(a.exponent, b.exponent)
        assert a.samples == 20_000 and type(a.samples) is int

    def test_worker_independent_counts(self):
        fam = TranslationFamily(cantor(), low=np.zeros(2), high=np.ones(2))
        kw = dict(param_samples=300_000, seed=11)
        r = dyadic_grid(0.5, 7)
        a = transversality_exponent(fam, (0,) * 40, (1,) * 40, r, workers=1, **kw)
        b = transversality_exponent(fam, (0,) * 40, (1,) * 40, r, workers=3, **kw)
        assert np.array_equal(a.hits, b.hits)
        assert a.exponent == b.exponent


# Oracle copy of _affine_decomposition as it stood before it took its maps
# from ifs._prefix_maps: one loop whose rotated map is ratios[s] * (A @ O_s).
# Straight systems must keep its bits.  Rotated ones now grow A by A @
# linear[s], the separation search's rule, and must agree with it within
# ROTATED_ULPS units in the last place of the largest entry.

ROTATED_ULPS = 8


def reference_affine_decomposition(ifs, word):
    word = as_word(word, ifs.m)
    n = ifs.ambient_dim
    mats = np.zeros((ifs.m, n, n))
    const = np.zeros(n)
    a = np.eye(n)
    for s in word:
        mats[s] += a
        const = const + a @ ifs.translations[s]
        a = ifs.ratios[s] * (a @ ifs.orthogonal[s])
    metric = AdaptedMetric(ifs.ratios)
    tail_scale = metric.weight(word) / (1.0 - metric.gamma)
    return const, mats, tail_scale


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_within_ulps(got, ref):
    bound = ROTATED_ULPS * np.spacing(np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref)) <= bound, (np.max(np.abs(got - ref)), bound)


def rotation(angle):
    return [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]


def random_orthogonal(rng, m, n):
    qr = [np.linalg.qr(rng.normal(size=(n, n))) for _ in range(m)]
    return np.array([q * np.sign(np.diag(r)) for q, r in qr])


DECOMPOSITION_STRAIGHT = {
    "cantor": cantor,
    "square": square_corners,
    "signed-zero": lambda: SimilarityIFS(
        ratios=[0.2, 0.45, 0.3], translations=[[-0.2, -0.0], [0.6, -0.0], [0.1, -0.9]]
    ),
    "space": lambda: SimilarityIFS(
        ratios=[0.25, 0.3, 0.15], translations=[[0.0, -0.5, 0.2], [-0.7, 0.1, 0.0], [0.2, 0.6, 0.5]]
    ),
}

DECOMPOSITION_ROTATED = {
    "plane": lambda: SimilarityIFS(
        ratios=[0.3] * 3,
        translations=[[0.0, 0.0], [0.7, 0.0], [0.35, 0.6]],
        orthogonal=[rotation(a) for a in (0.7, 2.1, -1.3)],
    ),
    "space": lambda: SimilarityIFS(
        ratios=[0.25, 0.35],
        translations=[[0.0, 0.1, -0.3], [0.8, -0.2, 0.4]],
        orthogonal=random_orthogonal(substream(5, 1), 2, 3),
    ),
}


def decomposition_words(F, seed):
    rng = substream(seed, 2)
    for length in (1, 2, 40, 65, 200):
        yield tuple(int(s) for s in rng.integers(0, F.m, length))


class TestAffineDecompositionOracle:
    @pytest.mark.parametrize("name", sorted(DECOMPOSITION_STRAIGHT))
    def test_straight_matches_the_loop_bitwise(self, name):
        F = DECOMPOSITION_STRAIGHT[name]()
        assert F._straight
        for word in decomposition_words(F, 31):
            const, mats, tail = _affine_decomposition(F, word)
            ref_const, ref_mats, ref_tail = reference_affine_decomposition(F, word)
            assert const.tobytes() == ref_const.tobytes(), word
            assert mats.tobytes() == ref_mats.tobytes(), word
            assert same_bits(tail, ref_tail)

    @pytest.mark.parametrize("name", sorted(DECOMPOSITION_ROTATED))
    def test_rotated_matches_the_loop_within_ulps(self, name):
        F = DECOMPOSITION_ROTATED[name]()
        assert not F._straight
        for word in decomposition_words(F, 37):
            const, mats, tail = _affine_decomposition(F, word)
            ref_const, ref_mats, ref_tail = reference_affine_decomposition(F, word)
            assert_within_ulps(const, ref_const)
            assert_within_ulps(mats, ref_mats)
            assert same_bits(tail, ref_tail)


def transversality_pair(F, monkeypatch, r0, **kw):
    """transversality_exponent, and the same call on the oracle decomposition."""
    box = np.zeros((F.m, F.ambient_dim)), np.ones((F.m, F.ambient_dim))
    fam = TranslationFamily(F, *box)
    args = (fam, (0,) + (1,) * 39, (1,) + (0,) * 39, dyadic_grid(r0, 8), 100_000)
    got = transversality_exponent(*args, **kw)
    monkeypatch.setattr(ifs_module, "_affine_decomposition", reference_affine_decomposition)
    ref = transversality_exponent(*args, **kw)
    return got, ref


class TestTransversalityOracle:
    @pytest.mark.parametrize("name", sorted(DECOMPOSITION_STRAIGHT))
    def test_straight_matches_the_loop_bitwise(self, name, monkeypatch):
        got, ref = transversality_pair(DECOMPOSITION_STRAIGHT[name](), monkeypatch, 0.5, seed=3)
        assert got.hits.tobytes() == ref.hits.tobytes()
        assert got.measures.tobytes() == ref.measures.tobytes()
        assert same_bits(got.exponent, ref.exponent)
        assert same_bits(got.k_hat, ref.k_hat)

    @pytest.mark.parametrize("name, r0", [("plane", 0.5), ("space", 2.0)])
    def test_rotated_family_matches_the_loop(self, name, r0, monkeypatch):
        # the decompositions differ by a few ulps (see above), far below the
        # radii, so no sample changes side and every count is kept
        got, ref = transversality_pair(DECOMPOSITION_ROTATED[name](), monkeypatch, r0, seed=9)
        assert got.hits.tobytes() == ref.hits.tobytes()
        assert same_bits(got.exponent, ref.exponent)
        assert not got.degenerate

    def test_rotated_plane_family_has_slope_two(self):
        # the difference of the two coded points is affine and onto R^2 in
        # the offsets, so small balls have measure about r^2
        F = DECOMPOSITION_ROTATED["plane"]()
        fam = TranslationFamily(F, low=np.zeros((3, 2)), high=np.ones((3, 2)))
        res = transversality_exponent(
            fam, (0,) + (1,) * 39, (1,) + (0,) * 39, dyadic_grid(0.5, 8), 100_000, seed=9
        )
        assert res.exponent == pytest.approx(2.0, abs=0.1)
