"""Grassmannian draws, projections, separation and Holder checks."""

import copy
import hashlib
import heapq
import itertools
import math
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, ks_2samp

from fractdim import ifs as ifs_module
from fractdim import projections
from fractdim.errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    EstimationError,
    PreconditionError,
)
from fractdim.ifs import (
    SimilarityIFS,
    _prefix_maps,
    _project_batch,
    natural_projection,
    sample_points,
)
from fractdim.measures import BernoulliMeasure
from fractdim.projections import (
    EDEReport,
    HolderReport,
    MarstrandReport,
    Subspace,
    _STREAM_BASE_WORDS,
    _enemy_distance_bounds,
    _greedy_enemy_leaves,
    ede_check,
    holder_inverse_check,
    marstrand_experiment,
    project_cloud,
    sample_subspace,
)
from fractdim.runtime import substream
from fractdim.symbolic import AdaptedMetric, as_word

CANTOR_DIM = math.log(2) / math.log(3)


def cantor():
    return SimilarityIFS(ratios=[1 / 3, 1 / 3], translations=[0.0, 2 / 3])


def square_corners():
    t = np.array([[0, 0], [2 / 3, 0], [0, 2 / 3], [2 / 3, 2 / 3]], dtype=float)
    return SimilarityIFS(ratios=[1 / 3] * 4, translations=t)


def overlap_pair():
    return SimilarityIFS(ratios=[0.5, 0.5], translations=[0.0, 0.5])


def overlap_triple():
    return SimilarityIFS(ratios=[0.55] * 3, translations=[0.0, 0.4, 1.0])


UNIFORM2 = BernoulliMeasure([0.5, 0.5])
UNIFORM4 = BernoulliMeasure([0.25] * 4)


class TestSubspace:
    def test_orthonormal_enforced(self):
        with pytest.raises(PreconditionError):
            Subspace([[1.0, 1.0]])
        with pytest.raises(PreconditionError):
            Subspace([[1.0, 0.0, 0.0], [0.1, 1.0, 0.0]])

    def test_shape_enforced(self):
        with pytest.raises(PreconditionError):
            Subspace([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_every_draw_orthonormal(self):
        for j in range(50):
            v = sample_subspace(4, 2, 9, index=j)
            gram = v.basis @ v.basis.T
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_proper_subspace_required(self):
        with pytest.raises(PreconditionError):
            sample_subspace(3, 3, 0)
        with pytest.raises(PreconditionError):
            sample_subspace(3, 0, 0)

    @pytest.mark.parametrize("n, d, what", [
        (2.5, 1, "ambient dimension"), (math.nan, 1, "ambient dimension"),
        (3, 1.5, "subspace dimension"), (3, "1", "subspace dimension"),
    ])
    def test_non_integral_dimensions_rejected(self, n, d, what):
        with pytest.raises(PreconditionError, match=f"{what} must be an integer, got"):
            sample_subspace(n, d, 0)

    def test_integral_float_dimensions_accepted(self):
        a = sample_subspace(5.0, 2.0, 13, index=7)
        b = sample_subspace(5, 2, 13, index=7)
        assert a.basis.tobytes() == b.basis.tobytes()

    def test_deterministic(self):
        a = sample_subspace(5, 2, 13, index=7)
        b = sample_subspace(5, 2, 13, index=7)
        assert np.array_equal(a.basis, b.basis)

    def test_planar_angle_uniform(self):
        angles = np.empty(10_000)
        for j in range(angles.size):
            v = sample_subspace(2, 1, 31, index=j).basis[0]
            angles[j] = math.atan2(v[1], v[0]) % math.pi
        assert kstest(angles / math.pi, "uniform").pvalue > 0.01

    def test_rotation_invariance(self):
        theta = 0.83
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        plain = np.empty(4000)
        rotated = np.empty(4000)
        for j in range(4000):
            v = sample_subspace(2, 1, 37, index=j).basis[0]
            w = rot @ sample_subspace(2, 1, 38, index=j).basis[0]
            plain[j] = math.atan2(v[1], v[0]) % math.pi
            rotated[j] = math.atan2(w[1], w[0]) % math.pi
        assert ks_2samp(plain, rotated).pvalue > 0.01


class TestProjectCloud:
    def test_axis_extraction(self):
        cloud = sample_points(square_corners(), UNIFORM4, 500, tol=1e-6, seed=1)
        axis = Subspace([[0.0, 1.0]])
        proj = project_cloud(cloud, axis)
        assert proj.points[:, 0] == pytest.approx(cloud.points[:, 1], abs=0)
        assert proj.truncation_error == cloud.truncation_error

    def test_never_expands_distances(self):
        rng = substream(5, 99)
        pts = rng.standard_normal((300, 3))
        from fractdim.dimest import PointCloud

        cloud = PointCloud(pts)
        v = sample_subspace(3, 2, 11)
        proj = project_cloud(cloud, v)
        a = rng.integers(0, 300, 10_000)
        b = rng.integers(0, 300, 10_000)
        d_src = np.linalg.norm(pts[a] - pts[b], axis=1)
        d_img = np.linalg.norm(proj.points[a] - proj.points[b], axis=1)
        assert np.all(d_img <= d_src + 1e-12)

    def test_takes_the_product_without_a_copy(self):
        from fractdim.dimest import PointCloud

        cloud = sample_points(square_corners(), UNIFORM4, 2000, tol=1e-6, seed=2)
        v = sample_subspace(2, 1, 7)
        proj = project_cloud(cloud, v)
        # the cloud the copying constructor built from the same product
        old = PointCloud(cloud.points @ v.basis.T, truncation_error=cloud.truncation_error)
        assert proj.points.dtype == old.points.dtype and proj.points.shape == old.points.shape
        assert proj.points.tobytes() == old.points.tobytes()
        assert proj.truncation_error == old.truncation_error
        assert not proj.points.flags.writeable
        assert not np.shares_memory(proj.points, cloud.points)

    def test_dim_mismatch(self):
        cloud = sample_points(cantor(), UNIFORM2, 100, tol=1e-6, seed=0)
        with pytest.raises(PreconditionError):
            project_cloud(cloud, sample_subspace(3, 1, 0))

    def test_product_projects_to_cantor_boxes(self):
        planar = sample_points(square_corners(), UNIFORM4, 40_000, tol=1e-7, seed=3)
        line = sample_points(cantor(), UNIFORM2, 40_000, tol=1e-7, seed=4)
        proj = project_cloud(planar, Subspace([[1.0, 0.0]]))
        cell = 3.0**-6
        boxes_proj = np.unique(np.floor(proj.points[:, 0] / cell).astype(np.int64))
        boxes_line = np.unique(np.floor(line.points[:, 0] / cell).astype(np.int64))
        assert np.array_equal(boxes_proj, boxes_line)
        assert boxes_proj.size == 2**6


class TestMarstrand:
    def test_product_projects_to_full_dimension(self):
        rep = marstrand_experiment(
            square_corners(), UNIFORM4, d=1, num_directions=16,
            count=40_000, seed=5, max_pairs=1_000_000,
        )
        assert rep.predicted == 1.0
        assert rep.fraction_within >= 0.9
        assert not rep.below.any()

    def test_dust_keeps_its_dimension(self):
        dust = SimilarityIFS(
            ratios=[1 / 3, 1 / 3], translations=np.array([[0, 0], [2 / 3, 2 / 5]])
        )
        rep = marstrand_experiment(
            dust, UNIFORM2, d=1, num_directions=16,
            count=40_000, seed=5, tol=0.07, max_pairs=1_000_000,
        )
        assert rep.predicted == pytest.approx(CANTOR_DIM, abs=1e-12)
        assert rep.fraction_within >= 0.9

    def test_planted_exceptional_direction_flagged(self):
        axis = Subspace([[1.0, 0.0]])
        rep = marstrand_experiment(
            square_corners(), UNIFORM4, d=1, num_directions=0,
            count=40_000, seed=5, directions=[axis], max_pairs=1_000_000,
        )
        assert rep.below[0]
        assert rep.estimates[0] == pytest.approx(CANTOR_DIM, abs=0.07)

    def test_bad_projection_dim(self):
        with pytest.raises(PreconditionError):
            marstrand_experiment(square_corners(), UNIFORM4, 2, 4, 1000, 0)
        with pytest.raises(PreconditionError):
            marstrand_experiment(cantor(), UNIFORM2, 1, 4, 1000, 0)

    def test_first_failing_direction_is_named(self, monkeypatch):
        # direction 2's schedule fails, but direction 1 sits before it in the
        # same block and its fit fails too: the error is direction 1's
        flat = SimilarityIFS(
            ratios=[1 / 3, 1 / 3], translations=np.array([[0.0, 0.0], [2 / 3, 1e-5]])
        )
        lines = [Subspace([[1.0, 0.0]]), Subspace([[0.6, 0.8]]), Subspace([[0.0, 1.0]])]
        fit = projections._correlation_fit
        fits = []

        def second_fit_fails(schedule, total, hits):
            fits.append(schedule)
            if len(fits) == 2:
                raise EstimationError("no pairs resolved at some fitted scale")
            return fit(schedule, total, hits)

        monkeypatch.setattr(projections, "_correlation_fit", second_fit_fails)
        kw = dict(count=5_000, seed=3, directions=lines, max_pairs=20_000)
        with pytest.raises(EstimationError, match="^direction 1: no pairs resolved"):
            marstrand_experiment(flat, UNIFORM2, 1, 0, **kw)
        monkeypatch.setattr(projections, "_correlation_fit", fit)
        with pytest.raises(PreconditionError, match="^direction 2: fit window"):
            marstrand_experiment(flat, UNIFORM2, 1, 0, **kw)

    @pytest.mark.parametrize("num_directions", [2.5, math.inf, math.nan, "3"])
    def test_non_integral_direction_count_rejected(self, num_directions):
        with pytest.raises(PreconditionError, match="direction count must be an integer, got"):
            marstrand_experiment(square_corners(), UNIFORM4, 1, num_directions, 1000, 0)

    @pytest.mark.parametrize("count", [2.5, math.nan, "3"])
    def test_non_integral_point_count_rejected(self, count):
        with pytest.raises(PreconditionError, match="point count must be an integer, got"):
            marstrand_experiment(square_corners(), UNIFORM4, 1, 2, count, 0)

    def test_worker_independent(self):
        kw = dict(num_directions=4, count=20_000, seed=7, max_pairs=200_000)
        a = marstrand_experiment(square_corners(), UNIFORM4, 1, workers=1, **kw)
        for workers in (2, 3):
            b = marstrand_experiment(square_corners(), UNIFORM4, 1, workers=workers, **kw)
            assert np.array_equal(a.estimates, b.estimates)
            assert np.array_equal(a.stderrs, b.stderrs)
            assert a.fraction_within == b.fraction_within


class TestEDE:
    def test_cantor_level_one_geometry(self):
        rep = ede_check(cantor(), (0,) * 40, range(1, 11), epsilon=0.0, tol=1e-10)
        assert rep.dist_lower[0] == pytest.approx(2 / 3, abs=1e-9)
        assert rep.diam[0] == pytest.approx(1 / 3, abs=1e-12)
        assert rep.dist_lower[0] / rep.diam[0] == pytest.approx(2.0, abs=1e-8)
        # level-1 enclosures [0, 1/3] and [2/3, 1] sit one gap width apart
        assert rep.constant == pytest.approx(1 / 3, abs=1e-12)
        assert rep.all_passed
        assert not rep.overlap_suspected

    def test_ssc_passes_at_depth_twenty(self):
        rng = substream(11, 3)
        words = UNIFORM2.sample_batch(10, 40, rng)
        for row in words:
            rep = ede_check(cantor(), tuple(row), range(1, 21), 0.1, tol=1e-12)
            assert rep.all_passed
            assert rep.worst_exponent < 1.1

    def test_pruning_keeps_search_small(self):
        rep = ede_check(cantor(), (0, 1) * 20, range(1, 21), 0.1, tol=1e-12)
        # full enumeration would build 2^21 nodes; under separation the
        # nearest enemy at each depth is the path's sibling, so the search
        # builds only the m children of each path node
        assert rep.expansions <= cantor().m * 20

    def test_overlap_system_fails_with_evidence(self):
        word = (0,) + (1,) * 49
        rep = ede_check(overlap_pair(), word, range(1, 11), 0.1, tol=1e-12)
        assert rep.overlap_suspected
        assert not rep.passed.any()
        assert rep.worst_exponent == math.inf

    def test_rotated_separated_system_passes(self):
        c, s = math.cos(0.4), math.sin(0.4)
        rot = [[[c, -s], [s, c]], [[c, s], [-s, c]]]
        F = SimilarityIFS(
            ratios=[0.3, 0.3], translations=[[0, 0], [1, 0]], orthogonal=rot
        )
        word = tuple(UNIFORM2.sample_batch(1, 30, substream(2, 4))[0])
        rep = ede_check(F, word, range(1, 9), 0.1, tol=1e-9)
        assert rep.all_passed

    def test_depth_beyond_word_rejected(self):
        with pytest.raises(PreconditionError):
            ede_check(cantor(), (0, 1, 0), range(1, 5), 0.1, tol=1.0)

    def test_negative_epsilon_rejected(self):
        for epsilon in (-0.1, math.nan, math.inf):
            with pytest.raises(PreconditionError):
                ede_check(cantor(), (0,) * 20, range(1, 5), epsilon, tol=1e-6)

    @pytest.mark.parametrize(
        "depths, bad",
        [
            ([1.5, 2.9, 3], "1.5"),
            (np.array([1.99, 3.2]), "1.99"),
            ([1, math.inf], "inf"),
            ([math.nan, 2], "nan"),
            (["2"], "2"),
        ],
    )
    def test_non_integral_depths_rejected(self, depths, bad):
        with pytest.raises(PreconditionError, match=f"depth must be an integer, got {bad}"):
            ede_check(cantor(), (0, 1) * 20, depths, 0.1, tol=1e-12)

    def test_integral_float_depths_accepted(self):
        word = (0, 1) * 20
        got = ede_check(cantor(), word, np.array([3.0, 1.0, 2.0]), 0.1, tol=1e-12)
        ref = ede_check(cantor(), word, range(1, 4), 0.1, tol=1e-12)
        assert got.depths.tolist() == [1, 2, 3]
        assert got.dist_lower.tobytes() == ref.dist_lower.tobytes()

    def test_diam_is_the_weight_of_every_prefix(self):
        # a ratio of 0.75 keeps depth-100 enclosures a hundred ulps wide,
        # so the search still resolves them
        F = SimilarityIFS(ratios=[0.75, 0.2], translations=[0.0, 0.8])
        word = (1, 0, 1) + (0,) * 117
        rep = ede_check(F, word, range(1, 101), 0.1, tol=1e-12)
        assert rep.depths.tolist() == list(range(1, 101))
        for n, diam in zip(rep.depths.tolist(), rep.diam):
            assert same_bits(diam, AdaptedMetric(F.ratios).weight(word[:n]) * 2.0 * F.radius), n

    def test_budget_partial_then_error(self, monkeypatch):
        # this word costs 2 nodes per depth, the children of its path node
        monkeypatch.setenv("FRACTDIM_BUDGET", "20")
        rep = ede_check(cantor(), (0,) * 40, range(1, 21), 0.1, tol=1e-12)
        assert rep.partial
        assert rep.depths.tolist() == list(range(1, 11))
        assert rep.expansions == 20
        # walking the path down to depth 15 alone takes 30 nodes
        with pytest.raises(BudgetExceededError):
            ede_check(cantor(), (0,) * 40, range(15, 21), 0.1, tol=1e-12)

    def test_budget_bounds_overlapping_search(self, monkeypatch):
        # overlapping maps prune weakly, so the budget is what stops the search
        F = overlap_triple()
        word = (0, 1, 2) * 20
        budget = 16384
        x = natural_projection(F, word, 1e-9)[0]
        spent, reached = [0], 0
        with pytest.raises(BudgetExceededError):
            for depth in range(1, 31):
                reference_enemy_distance_bound(F, word, depth, x, budget, spent)
                reached = depth
        monkeypatch.setenv("FRACTDIM_BUDGET", str(budget))
        rep = ede_check(F, word, range(1, 31), 0.1, tol=1e-9)
        assert rep.partial
        assert rep.expansions <= budget
        assert rep.depths[-1] >= reached

    @given(
        st.floats(0.2, 0.45),
        st.floats(0.5, 1.0),
        st.integers(0, 2**20 - 1),
        st.floats(0.0, 0.15),
        st.floats(0.05, 0.3),
    )
    @settings(max_examples=25, deadline=None)
    def test_pass_monotone_in_epsilon(self, lam, t1, bits, eps, gap):
        F = SimilarityIFS(ratios=[lam, lam], translations=[0.0, t1])
        word = tuple((bits >> k) & 1 for k in range(20)) + (0,) * 20
        small = ede_check(F, word, range(1, 7), eps, tol=1e-6)
        large = ede_check(F, word, range(1, 7), eps + gap, tol=1e-6)
        assert np.all(~small.passed | large.passed)


class TestHolder:
    def test_ssc_constants_below_level_one_bound(self):
        hol = holder_inverse_check(
            cantor(), UNIFORM2, [0.5, 0.8, 0.95], 100, seed=3
        )
        for a, alpha in enumerate(hol.alphas):
            assert hol.overall[a] <= 3.0**alpha + 1e-9
            assert hol.overall[a] > 1.0
        assert hol.skipped.sum() == 0
        assert hol.stabilized().all()

    def test_double_address_word_skips_at_every_depth(self):
        word = [(0,) + (1,) * 39]
        hol = holder_inverse_check(
            overlap_pair(), UNIFORM2, [0.8], 1, seed=3,
            base_words=word, max_depth=16,
        )
        assert np.all(hol.skipped == 1)

    def test_overlap_blows_up_against_ssc(self):
        ssc = holder_inverse_check(cantor(), UNIFORM2, [0.8], 60, seed=3)
        over = holder_inverse_check(overlap_pair(), UNIFORM2, [0.8], 60, seed=3)
        assert over.overall[0] > 10.0 * ssc.overall[0]

    def test_alpha_domain(self):
        for alpha in (0.0, 1.0, -0.3, 1.7, math.nan, math.inf):
            with pytest.raises(PreconditionError):
                holder_inverse_check(cantor(), UNIFORM2, [alpha], 10, seed=0)
        with pytest.raises(PreconditionError):
            holder_inverse_check(cantor(), UNIFORM2, [math.nan, 0.5], 10, seed=0)

    @pytest.mark.parametrize("max_depth", [3.5, math.inf, math.nan, "3"])
    def test_non_integral_enemy_depth_rejected(self, max_depth):
        with pytest.raises(PreconditionError, match="enemy depth must be an integer, got"):
            holder_inverse_check(cantor(), UNIFORM2, [0.5], 4, seed=0, max_depth=max_depth)

    def test_integral_float_enemy_depth_accepted(self):
        got = holder_inverse_check(cantor(), UNIFORM2, [0.5], 4, seed=0, max_depth=3.0)
        ref = holder_inverse_check(cantor(), UNIFORM2, [0.5], 4, seed=0, max_depth=3)
        assert holder_bits(got) == holder_bits(ref)

    @pytest.mark.parametrize("pair_samples", [2.5, math.inf, math.nan, "3"])
    def test_non_integral_sample_count_rejected(self, pair_samples):
        with pytest.raises(PreconditionError, match="base sample count must be an integer, got"):
            holder_inverse_check(cantor(), UNIFORM2, [0.5], pair_samples, seed=0)

    def test_integral_float_sample_count_accepted(self):
        got = holder_inverse_check(cantor(), UNIFORM2, [0.5], 3.0, seed=0)
        ref = holder_inverse_check(cantor(), UNIFORM2, [0.5], 3, seed=0)
        assert holder_bits(got) == holder_bits(ref)
        assert got.pairs.tolist() == ref.pairs.tolist()

    @pytest.mark.parametrize("name, straight", [("line", True), ("rotated", False)])
    def test_descent_carries_a_map_only_on_rotated_systems(self, name, straight, monkeypatch):
        F = SYSTEMS[name]()
        apply_maps = projections._apply_maps
        maps = []

        def spy(psi, amats, *rest):
            maps.append(amats)
            return apply_maps(psi, amats, *rest)

        monkeypatch.setattr(projections, "_apply_maps", spy)
        holder_inverse_check(F, BernoulliMeasure(np.full(F.m, 1.0 / F.m)), [0.5], 3, seed=0)
        assert maps
        assert all((amats is None) == straight for amats in maps)

    def test_rho_makes_no_weight_call(self, monkeypatch):
        def refuse(self, word):
            raise AssertionError("per-depth weight call")

        monkeypatch.setattr(AdaptedMetric, "weight", refuse)
        holder_inverse_check(cantor(), UNIFORM2, [0.5], 3, seed=0)

    def test_ragged_base_words_rejected(self):
        with pytest.raises(PreconditionError):
            holder_inverse_check(
                cantor(), UNIFORM2, [0.5], 1, seed=0,
                base_words=[(0, 1, 0, 1, 0), (1, 0, 1, 0)],
            )

    def test_huge_sample_over_budget(self):
        # refused before the base words are drawn
        with pytest.raises(BudgetExceededError, match="Holder base sample needs"):
            holder_inverse_check(cantor(), UNIFORM2, [0.5], 10**12, seed=0)

    def test_alphabet_mismatch(self):
        mu3 = BernoulliMeasure([0.2, 0.3, 0.5])
        with pytest.raises(AlphabetMismatchError):
            holder_inverse_check(cantor(), mu3, [0.5], 10, seed=0)

    def test_needs_samples(self):
        with pytest.raises(PreconditionError):
            holder_inverse_check(cantor(), UNIFORM2, [0.5], 0, seed=0)


# Verbatim copies of the SimilarityIFS methods that the oracles below were
# written on: map_point, child, and word_map with its _compose.  The library
# dropped them when every word walk took its maps from ifs._prefix_maps.


def map_point(ifs, i, x):
    return ifs.ratios[i] * ifs.orthogonal[i] @ x + ifs.translations[i]


def child(ifs, s, c, psi, amat):
    """Child s of the cylinder node (c, psi, amat)."""
    return c + amat @ ifs.steps[s], psi * ifs.ratios[s], amat @ ifs.linear[s]


def word_map(ifs, word):
    """Affine composite of f along the word: x -> A x + b."""
    n = ifs.ambient_dim
    a = np.eye(n)
    b = np.zeros(n)
    for s in as_word(word, ifs.m):
        b = a @ ifs.translations[s] + b
        a = ifs.ratios[s] * (a @ ifs.orthogonal[s])
    return a, b


# Oracle copies of the cylinder-tree walkers as they stood before they were
# rewritten on SimilarityIFS.child, the enemy bound as one depth-first search
# per depth; the rewrites must agree with them bitwise.


def reference_enemy_distance_bound(ifs, word, depth, x, budget, spent):
    m = ifs.m
    ratios, orth, trans = ifs.ratios, ifs.orthogonal, ifs.translations
    center, radius = ifs.center, ifs.radius
    straight = ifs._straight
    base = np.eye(ifs.ambient_dim)
    best = math.inf
    # node: (depth, center, scale, composite map or None, on excluded path)
    stack = [(0, center, 1.0, base if not straight else None, True)]
    while stack:
        k, c, psi, amat, on_path = stack.pop()
        spent[0] += 1
        if spent[0] > budget:
            raise BudgetExceededError(
                f"separation search exceeded the enumeration budget ({budget})"
            )
        if not on_path:
            bound = float(np.linalg.norm(x - c)) - psi * radius
            if bound >= best:
                continue
            if k == depth:
                best = bound
                continue
        elif k == depth:
            continue
        children = []
        for s in range(m):
            img = map_point(ifs, s, center)
            if straight:
                child_c = c + psi * (img - center)
                child_a = None
            else:
                child_c = c + amat @ (img - center)
                child_a = amat @ (ratios[s] * orth[s])
            child_on = on_path and k < len(word) and s == word[k]
            children.append((k + 1, child_c, psi * ratios[s], child_a, child_on))
        # visit nearest child first so the minimum tightens early
        children.sort(
            key=lambda node: np.linalg.norm(x - node[1]) - node[2] * radius,
            reverse=True,
        )
        stack.extend(children)
    return best


def reference_greedy_enemy_leaf(ifs, word, deviate_at, x, length):
    ratios, center, radius = ifs.ratios, ifs.center, ifs.radius
    straight = ifs._straight
    m = ifs.m
    c = center.copy()
    psi = 1.0
    amat = None if straight else np.eye(ifs.ambient_dim)
    out = []
    for j in range(length):
        best_s, best_c, best_val = None, None, math.inf
        for s in range(m):
            if j == deviate_at - 1 and s == word[j]:
                continue
            img = map_point(ifs, s, center)
            child_c = c + (psi * (img - center) if straight else amat @ (img - center))
            val = float(np.linalg.norm(x - child_c)) - psi * ratios[s] * radius
            if val < best_val:
                best_s, best_c, best_val = s, child_c, val
        if j < deviate_at - 1:
            # stay on the base path until the forced deviation
            best_s = word[j]
            img = map_point(ifs, best_s, center)
            best_c = c + (
                psi * (img - center) if straight else amat @ (img - center)
            )
        out.append(best_s)
        c = best_c
        if not straight:
            amat = amat @ (ratios[best_s] * ifs.orthogonal[best_s])
        psi *= ratios[best_s]
    return out


def rotated_pair():
    c, s = math.cos(0.4), math.sin(0.4)
    rot = [[[c, -s], [s, c]], [[c, s], [-s, c]]]
    return SimilarityIFS(
        ratios=[0.3, 0.3], translations=[[0, 0], [1, 0]], orthogonal=rot
    )


def tetra_corners():
    t = np.vstack([np.zeros(3), 0.7 * np.eye(3)])
    return SimilarityIFS(ratios=[0.3] * 4, translations=t)


def negative_line():
    return SimilarityIFS(ratios=[0.3, 0.25, 0.2], translations=[-1.0, 0.0, 0.9])


WALK_SYSTEMS = {
    "cantor": cantor,
    "overlap": overlap_pair,
    "negative": negative_line,
    "square": square_corners,
    "tetra": tetra_corners,
    "rotated": rotated_pair,
}

STRAIGHT_SYSTEMS = {
    "line": lambda: SimilarityIFS(ratios=[0.3, 0.45, 0.2], translations=[-1.0, 0.25, 0.9]),
    "plane": lambda: SimilarityIFS(
        ratios=[0.35, 0.2, 0.4], translations=[[-0.5, 0.0], [0.3, -0.8], [-0.0, 0.6]]
    ),
    # the words of maps 0 and 1 sum only -0.0 in the second coordinate
    "signed-zero": lambda: SimilarityIFS(
        ratios=[0.2, 0.45, 0.3], translations=[[-0.2, -0.0], [0.6, -0.0], [0.1, -0.9]]
    ),
    "space": lambda: SimilarityIFS(
        ratios=[0.25, 0.3, 0.15, 0.4],
        translations=[[0.0, -0.0, 0.0], [-0.7, 0.1, 0.0], [0.2, -0.6, 0.5], [0.0, 0.3, -0.9]],
    ),
}

# every system the tree walkers are checked on, straight ones included
SYSTEMS = {**WALK_SYSTEMS, **STRAIGHT_SYSTEMS}


def coded_points(ifs, seed, count=3):
    """Seeded 40-symbol words with the points they code."""
    rng = substream(seed, 77)
    for _ in range(count):
        word = tuple(int(s) for s in rng.integers(0, ifs.m, 40))
        yield word, natural_projection(ifs, word, 1e-6)[0]


def enemy_bounds(ifs, word, x, depths, budget, spent):
    """_enemy_distance_bounds on the prefix maps of the whole word, as ede_check passes them."""
    maps = _prefix_maps(ifs, np.array(word, dtype=np.intp))
    return _enemy_distance_bounds(ifs, word, x, *maps, depths, budget, spent)


def random_system(kind, seed):
    """Seeded 2-4 map system: straight or rotated in the plane, or overlapping on the line.

    Overlapping systems have ratios above 1/2, so they sum past 1 on an
    interval: enclosures of distinct words intersect and pruning is weak.
    """
    rng = substream(seed, 79)
    m = int(rng.integers(2, 5))
    if kind == "overlapping":
        return SimilarityIFS(
            ratios=rng.uniform(0.51, 0.6, m), translations=rng.uniform(0.0, 1.0, m)
        )
    ratios = rng.uniform(0.1, 0.3, m)
    translations = rng.uniform(0.0, 1.0, (m, 2))
    if kind == "straight":
        return SimilarityIFS(ratios=ratios, translations=translations)
    angles = rng.uniform(-math.pi, math.pi, m)
    rot = [[[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]] for a in angles]
    return SimilarityIFS(ratios=ratios, translations=translations, orthogonal=rot)


RANDOM_SYSTEMS = [
    (kind, seed) for kind in ("straight", "rotated", "overlapping") for seed in range(4)
]


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_bounds_match_reference(F, seed, depths):
    """The one search yields, depth by depth, the bits of the per-depth oracle."""
    for word, x in coded_points(F, seed):
        bounds = list(enemy_bounds(F, word, x, depths, 10**7, [0]))
        assert len(bounds) == len(depths)
        for depth, bound in zip(depths, bounds):
            ref = reference_enemy_distance_bound(F, word, depth, x, 10**7, [0])
            assert same_bits(bound, ref), (word, depth, bound, ref)


class TestTreeWalkOracle:
    @pytest.mark.parametrize("name", sorted(WALK_SYSTEMS))
    def test_enemy_bound_matches_reference(self, name):
        assert_bounds_match_reference(WALK_SYSTEMS[name](), 41, range(1, 13))

    @pytest.mark.parametrize("kind, seed", RANDOM_SYSTEMS)
    def test_enemy_bound_matches_reference_on_random_systems(self, kind, seed):
        assert_bounds_match_reference(random_system(kind, seed), 53, range(1, 11))

    @pytest.mark.parametrize("name", ["cantor", "overlap", "rotated"])
    def test_sparse_depths_match_reference(self, name):
        # depths that skip levels walk the path several levels at once
        assert_bounds_match_reference(WALK_SYSTEMS[name](), 59, [2, 3, 7, 8, 12])

    @pytest.mark.parametrize("name", sorted(WALK_SYSTEMS) + sorted(STRAIGHT_SYSTEMS))
    def test_greedy_leaf_matches_reference(self, name):
        F = SYSTEMS[name]()
        length = 12
        for word, x in coded_points(F, 43):
            base = np.array([word[:length]])
            leaves = _greedy_enemy_leaves(F, base, x[None], length)[0]
            for deviate_at in range(1, length + 1):
                leaf = leaves[deviate_at - 1].tolist()
                ref = reference_greedy_enemy_leaf(F, word, deviate_at, x, length)
                assert leaf == ref, (word, deviate_at)

    @pytest.mark.parametrize("name", ["square", "rotated"])
    def test_enemy_bound_matches_brute_force(self, name):
        F = WALK_SYSTEMS[name]()
        # every depth-n enclosure f_w(ball), from the affine map of its word
        balls = {}
        for depth in range(1, 7):
            words = list(itertools.product(range(F.m), repeat=depth))
            centers = np.array([a @ F.center + b for a, b in (word_map(F, w) for w in words)])
            radii = np.array([AdaptedMetric(F.ratios).weight(w) for w in words]) * F.radius
            balls[depth] = words, centers, radii
        for word, x in coded_points(F, 47):
            bounds = enemy_bounds(F, word, x, sorted(balls), 10**7, [0])
            for (depth, (words, centers, radii)), bound in zip(balls.items(), bounds):
                gaps = np.linalg.norm(x - centers, axis=1) - radii
                brute = float(np.delete(gaps, words.index(word[:depth])).min())
                assert bound == pytest.approx(brute, abs=1e-12)


# Oracle copy of the separation search as it stood before the path and its
# siblings were built in one pass: one heap of nodes that each hold their
# center, psi and map, grown one SimilarityIFS.child call at a time.  The
# one-pass search must yield its bits, spend as much and run out of budget
# at the same node.


def reference_heap_enemy_distance_bounds(ifs, word, x, depths, budget, spent):
    heap = []
    # equal bounds pop in push order, so nodes themselves never compare
    order = itertools.count()
    path = (ifs.center, 1.0, np.eye(ifs.ambient_dim))
    level = 0
    for n in depths:
        while level < n or heap[0][1] < n:
            if level < n:
                k, node, skip = level, path, word[level]
            else:
                _, k, _, *node = heapq.heappop(heap)
                skip = None
            if spent[0] + ifs.m > budget:
                raise BudgetExceededError(
                    f"separation search exceeded the enumeration budget ({budget})"
                )
            spent[0] += ifs.m
            for s in range(ifs.m):
                c, psi, amat = child(ifs, s, *node)
                if s == skip:
                    path, level = (c, psi, amat), k + 1
                else:
                    bound = float(np.linalg.norm(x - c)) - psi * ifs.radius
                    heapq.heappush(heap, (bound, k + 1, next(order), c, psi, amat))
        yield heap[0][0]


def run_search(search, F, word, x, depths, budget):
    """Bounds yielded before the budget ran out, whether it did, and the nodes spent."""
    spent, got = [0], []
    try:
        for bound in search(F, word, x, depths, budget, spent):
            got.append(bound)
    except BudgetExceededError:
        return got, True, spent[0]
    return got, False, spent[0]


SEARCH_SYSTEMS = {
    "overlap": overlap_pair,
    "rotated": rotated_pair,
    # overlapping enclosures: the search expands nodes off the word's path
    "random-rotated": lambda: random_system("rotated", 30),
}


class TestHeapSearchOracle:
    @pytest.mark.parametrize("name", sorted(SEARCH_SYSTEMS))
    def test_every_budget_matches_the_heap_of_nodes(self, name):
        F = SEARCH_SYSTEMS[name]()
        depths = range(1, 21)
        for word, x in coded_points(F, 67):
            need = run_search(reference_heap_enemy_distance_bounds, F, word, x, depths, 10**7)[2]
            if name == "random-rotated":
                assert need > F.m * depths[-1]
            for budget in range(F.m, need + 1):
                got = run_search(enemy_bounds, F, word, x, depths, budget)
                ref = run_search(reference_heap_enemy_distance_bounds, F, word, x, depths, budget)
                assert got[1:] == ref[1:], (word, budget)
                assert len(got[0]) == len(ref[0]), (word, budget)
                assert all(same_bits(a, b) for a, b in zip(got[0], ref[0])), (word, budget)
            # the full need finishes every depth
            assert not got[1]

    @pytest.mark.parametrize("name", sorted(SEARCH_SYSTEMS))
    def test_sparse_depths_match_the_heap_of_nodes(self, name):
        F = SEARCH_SYSTEMS[name]()
        for word, x in coded_points(F, 71):
            got = run_search(enemy_bounds, F, word, x, [3, 4, 9, 17], 10**7)
            ref = run_search(
                reference_heap_enemy_distance_bounds, F, word, x, [3, 4, 9, 17], 10**7
            )
            assert got[1:] == ref[1:]
            assert all(same_bits(a, b) for a, b in zip(got[0], ref[0]))


# Oracle copy of natural_projection and word_map as they stood before
# straight systems summed their path in one pass.


def reference_natural_projection(ifs, word, tol):
    word = as_word(word, ifs.m)
    psi = AdaptedMetric(ifs.ratios).weight(word)
    assert psi * 2.0 * ifs.radius <= tol
    n = ifs.ambient_dim
    a = np.eye(n)
    b = np.zeros(n)
    for s in word:
        b = a @ ifs.translations[s] + b
        a = ifs.ratios[s] * (a @ ifs.orthogonal[s])
    return a @ ifs.center + b, psi * ifs.radius


class TestStraightNaturalProjection:
    @pytest.mark.parametrize("length", [1, 2, 64, 65, 300])
    @pytest.mark.parametrize("name", sorted(STRAIGHT_SYSTEMS))
    def test_matches_word_map(self, name, length):
        F = STRAIGHT_SYSTEMS[name]()
        assert F._straight
        rng = substream(17, length)
        for _ in range(5):
            word = tuple(int(s) for s in rng.integers(0, F.m, length))
            x, trunc = natural_projection(F, word, 1e3)
            ref_x, ref_trunc = reference_natural_projection(F, word, 1e3)
            assert x.tobytes() == ref_x.tobytes(), word
            assert same_bits(trunc, ref_trunc)
            assert type(trunc) is type(ref_trunc)

    @pytest.mark.parametrize("name", sorted(STRAIGHT_SYSTEMS))
    def test_matches_word_map_when_the_ratio_product_underflows(self, name):
        F = STRAIGHT_SYSTEMS[name]()
        smallest = int(np.argmin(F.ratios))
        word = (1, 0) + (smallest,) * 1000
        x, trunc = natural_projection(F, word, 1e-9)
        ref_x, ref_trunc = reference_natural_projection(F, word, 1e-9)
        assert trunc == 0.0
        assert x.tobytes() == ref_x.tobytes()
        assert same_bits(trunc, ref_trunc)


# Rotated systems now grow the prefix maps by A @ linear[s], the separation
# search's rule, where word_map took ratios[s] * (A @ O_s): the coded points
# move by a few ulps, within ROTATED_ULPS units in the last place of their
# largest coordinate.

ROTATED_ULPS = 8


def exact_rotated():
    """The rotated system of the benchmark's closed-form workload."""
    rot = [[[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]] for a in (0.7, 2.1, -1.3)]
    return SimilarityIFS(
        ratios=[0.3] * 3, translations=[[0.0, 0.0], [0.7, 0.0], [0.35, 0.6]], orthogonal=rot
    )


ROTATED_SYSTEMS = {
    "rotated": rotated_pair,
    "exact": exact_rotated,
    **{f"random-{seed}": (lambda seed=seed: random_system("rotated", seed)) for seed in range(3)},
}


class TestStepsOracle:
    @pytest.mark.parametrize("name", sorted({**SYSTEMS, **ROTATED_SYSTEMS}))
    def test_steps_equal_the_map_point_loop(self, name):
        F = {**SYSTEMS, **ROTATED_SYSTEMS}[name]()
        ref = np.array([map_point(F, s, F.center) - F.center for s in range(F.m)])
        assert F.steps.tobytes() == ref.tobytes()


class TestRotatedNaturalProjection:
    @pytest.mark.parametrize("length", [1, 2, 40, 65, 300])
    @pytest.mark.parametrize("name", sorted(ROTATED_SYSTEMS))
    def test_matches_word_map_within_ulps(self, name, length):
        F = ROTATED_SYSTEMS[name]()
        assert not F._straight
        rng = substream(19, length)
        for _ in range(5):
            word = tuple(int(s) for s in rng.integers(0, F.m, length))
            x, trunc = natural_projection(F, word, 1e3)
            ref_x, ref_trunc = reference_natural_projection(F, word, 1e3)
            bound = ROTATED_ULPS * np.spacing(np.max(np.abs(ref_x)))
            assert np.max(np.abs(x - ref_x)) <= bound, word
            assert same_bits(trunc, ref_trunc)


def exact_words(seed):
    """The 40-symbol words the benchmark's closed-form workload draws for the
    rotated system at this seed."""
    rng = np.random.default_rng([seed, 3])
    words = BernoulliMeasure(np.full(3, 1.0 / 3.0)).sample_batch(60, 40, rng)
    return [tuple(int(s) for s in w) for w in words]


# sha256 of x, dist_lower, expansions and passed of every word, in order
ROTATED_DIGEST = "83e833c697f65d4bc31e3b37293e3fe4c811cbab3a71036ea0eeb608d8a9f26c"


class TestRotatedDigest:
    def test_exact_rotated_bits_are_pinned(self):
        # the rotated bits of ede_check and natural_projection; a change that
        # moves them is a drift to name, as in tests/test_config_digests.py
        F = exact_rotated()
        digest = hashlib.sha256()
        expansions = 0
        for word in exact_words(3001):
            x, _ = natural_projection(F, word, 1e-12)
            rep = ede_check(F, word, range(1, 21), 0.1, 1e-12)
            assert rep.all_passed
            expansions += rep.expansions
            for arr in (x, rep.dist_lower, np.int64(rep.expansions), rep.passed):
                digest.update(np.asarray(arr).tobytes())
        assert expansions == 3600
        assert digest.hexdigest() == ROTATED_DIGEST


def inline_witness_gap(ifs):
    """The level-1 witness gap as ede_check once computed it for every word."""
    level_c = ifs.map_points(np.arange(ifs.m), ifs.center)
    level_r = ifs.ratios * ifs.radius
    pair_gap = (
        np.linalg.norm(level_c[:, None, :] - level_c[None, :, :], axis=2)
        - level_r[:, None]
        - level_r[None, :]
    )
    return float(pair_gap[np.triu_indices(ifs.m, k=1)].min())


def signed_zero_rotation():
    """Identity orthogonal parts written with negative zeros: still straight."""
    eye = [[1.0, -0.0], [-0.0, 1.0]]
    return SimilarityIFS(
        ratios=[0.3, 0.4], translations=[[0.0, -0.0], [0.6, 0.2]], orthogonal=[eye, eye]
    )


INVARIANT_SYSTEMS = {**SYSTEMS, **ROTATED_SYSTEMS, "signed-zero-rotation": signed_zero_rotation}


class TestSystemInvariants:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_witness_gap_matches_the_inline_formula(self, name):
        F = SYSTEMS[name]()
        assert same_bits(F._witness_gap, inline_witness_gap(F))

    @pytest.mark.parametrize("name", sorted(INVARIANT_SYSTEMS))
    def test_straight_flag_matches_the_identity_test(self, name):
        F = INVARIANT_SYSTEMS[name]()
        want = bool(np.all(np.abs(F.orthogonal - np.eye(F.ambient_dim)) == 0))
        assert F._straight is want is (name not in ROTATED_SYSTEMS)

    @pytest.mark.parametrize("name", ["cantor", "rotated", "exact"])
    def test_ede_check_builds_the_prefix_maps_once(self, name, monkeypatch):
        F = {**WALK_SYSTEMS, **ROTATED_SYSTEMS}[name]()
        sizes = []
        real = ifs_module._prefix_maps

        def spy(ifs, sym):
            sizes.append(sym.size)
            return real(ifs, sym)

        monkeypatch.setattr(ifs_module, "_prefix_maps", spy)
        # the search takes its maps from natural projection's walk
        assert not hasattr(projections, "_prefix_maps")
        for word, _ in coded_points(F, 83):
            del sizes[:]
            ede_check(F, word, range(1, 21), 0.1, 1e-12)
            assert sizes == [len(word)]

    @pytest.mark.parametrize("name", ["cantor", "overlap", "rotated"])
    def test_filled_invariants_change_nothing_visible(self, name):
        F = WALK_SYSTEMS[name]()
        text, twin = repr(F), copy.copy(F)
        cold = pickle.loads(pickle.dumps(F))
        words = [word for word, _ in coded_points(F, 89)]
        reports = [ede_check(F, word, range(1, 13), 0.1, 1e-12) for word in words]
        assert "_witness_gap" in vars(F)
        assert repr(F) == text
        assert F == twin and F == F
        assert "_straight" not in [f.name for f in fields(F)]
        warm = pickle.loads(pickle.dumps(F))
        for G in (cold, warm):
            for word, rep in zip(words, reports):
                again = ede_check(G, word, range(1, 13), 0.1, 1e-12)
                assert same_bits(again.constant, rep.constant)
                assert again.dist_lower.tobytes() == rep.dist_lower.tobytes()
                assert again.expansions == rep.expansions


# Oracle copies of the scalar Holder descent, one base word and one depth at
# a time, as it stood before the descent was batched, with every weight an
# AdaptedMetric.weight call; the batched check must agree with it bitwise.


def scalar_greedy_enemy_leaf(ifs, word, deviate_at, x, length):
    """Leaf word leaving the base path at one level, descending toward x.

    Follows the base word up to deviate_at - 1, takes the nearest other
    child there, then always the child whose enclosure ball sits closest
    to x.  Purely deterministic; gives an empirical (not certified)
    nearest enemy for the Holder ratio.
    """
    node = (ifs.center, 1.0, np.eye(ifs.ambient_dim))
    out = []
    for j in range(length):
        if j < deviate_at - 1:
            # stay on the base path until the forced deviation
            best_s = word[j]
            best = child(ifs, best_s, *node)
        else:
            best_s, best, best_val = None, None, math.inf
            for s in range(ifs.m):
                if j == deviate_at - 1 and s == word[j]:
                    continue
                cand = child(ifs, s, *node)
                val = float(np.linalg.norm(x - cand[0])) - cand[1] * ifs.radius
                if val < best_val:
                    best_s, best, best_val = s, cand, val
        out.append(best_s)
        node = best
    return out


def scalar_holder_inverse_check(
    ifs, measure, alphas, pair_samples, seed, max_depth=None, base_words=None
):
    """Worst empirical constants in rho(w, t) <= C |Pi(w) - Pi(t)|^alpha.

    Base words are sampled from the measure (or supplied); for each depth
    the adversarial partner is the greedy nearest leaf among all enemy
    cylinders of that depth, so the ratio probes every separation scale.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if np.any(alphas <= 0.0) or np.any(alphas >= 1.0):
        raise PreconditionError("Holder exponents must lie strictly in (0, 1)")
    if measure.m != ifs.m:
        raise AlphabetMismatchError(
            f"measure alphabet {measure.m} != system alphabet {ifs.m}"
        )
    metric = AdaptedMetric(ifs.ratios)
    length = max(4, math.ceil(-12.0 * math.log(10.0) / math.log(metric.gamma)))
    if base_words is None:
        if pair_samples < 1:
            raise PreconditionError("need at least one base sample")
        rng_base = substream(seed, _STREAM_BASE_WORDS)
        base = measure.sample_batch(pair_samples, length, rng_base)
    else:
        base = np.array([as_word(w, ifs.m) for w in base_words], dtype=np.int64)
        if base.ndim != 2 or base.shape[1] < 4:
            raise PreconditionError("base words must share a length of at least 4")
        length = base.shape[1]
    if max_depth is None:
        max_depth = length // 2
    if not 1 <= max_depth < length:
        raise PreconditionError("enemy depth must sit inside the word length")
    x_base = _project_batch(ifs, base)
    trunc = max(metric.weight(w) for w in base) * ifs.radius
    n_base = base.shape[0]
    worst = np.zeros((alphas.size, max_depth))
    skipped = np.zeros(max_depth, dtype=np.int64)
    pairs = np.full(max_depth, n_base, dtype=np.int64)
    tiny = 1e-300
    for i in range(n_base):
        word = tuple(int(s) for s in base[i])
        x = x_base[i]
        e_base = metric.weight(word) * ifs.radius
        running = np.zeros(alphas.size)
        coincided = False
        for d in range(1, max_depth + 1):
            # a partner deviating at level j <= d is an enemy at depth d,
            # so the per-depth ratio accumulates over deviation levels
            leaf = scalar_greedy_enemy_leaf(ifs, word, d, x, length)
            y = _project_batch(ifs, np.array([leaf]))[0]
            e_leaf = metric.weight(leaf) * ifs.radius
            gap = float(np.linalg.norm(x - y))
            rho = metric.weight(word[: d - 1])
            if gap <= e_base + e_leaf + 1e-15:
                coincided = True
            else:
                running = np.maximum(running, rho / max(gap, tiny) ** alphas)
            if coincided:
                skipped[d - 1] += 1
            worst[:, d - 1] = np.maximum(worst[:, d - 1], running)
    overall = worst.max(axis=1)
    out = (alphas, np.arange(1, max_depth + 1), worst, overall, skipped, pairs)
    for arr in out:
        arr.flags.writeable = False
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


def holder_bits(rep):
    return (rep.worst.tobytes(), rep.skipped.tobytes(), rep.overall.tobytes())


HOLDER_SYSTEMS = ["cantor", "overlap", "rotated", "tetra"]


class TestHolderOracle:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("name", HOLDER_SYSTEMS + sorted(STRAIGHT_SYSTEMS))
    def test_batched_matches_scalar(self, name, seed):
        F = SYSTEMS[name]()
        mu = BernoulliMeasure(np.full(F.m, 1.0 / F.m))
        alphas = [0.3, 0.5, 0.8, 0.95]
        rep = holder_inverse_check(F, mu, alphas, 70, seed)
        ref = scalar_holder_inverse_check(F, mu, alphas, 70, seed)
        assert holder_bits(rep) == holder_bits(ref)
        assert rep.word_length == ref.word_length
        assert same_bits(rep.truncation, ref.truncation)

    @pytest.mark.parametrize("name", HOLDER_SYSTEMS)
    def test_block_size_changes_no_bit(self, name, monkeypatch):
        F = WALK_SYSTEMS[name]()
        mu = BernoulliMeasure(np.full(F.m, 1.0 / F.m))
        ref = scalar_holder_inverse_check(F, mu, [0.5, 0.8], 9, seed=5)
        monkeypatch.setattr(projections, "_HOLDER_BLOCK", 1)
        rep = holder_inverse_check(F, mu, [0.5, 0.8], 9, seed=5)
        assert holder_bits(rep) == holder_bits(ref)

    def test_supplied_double_address_matches_scalar(self):
        words = [(0,) + (1,) * 39, (1,) * 40]
        kw = dict(base_words=words, max_depth=16)
        rep = holder_inverse_check(overlap_pair(), UNIFORM2, [0.8], 1, seed=3, **kw)
        ref = scalar_holder_inverse_check(overlap_pair(), UNIFORM2, [0.8], 1, seed=3, **kw)
        assert holder_bits(rep) == holder_bits(ref)
        assert rep.skipped.sum() > 0

    @pytest.mark.parametrize("name", ["cantor", "rotated"])
    def test_long_words_match_scalar(self, name):
        # rho of prefixes up to 70 symbols long; on these systems every pair
        # that deep counts as a skip, so this pins the skip path, not the
        # ratios
        F = WALK_SYSTEMS[name]()
        mu = BernoulliMeasure(np.full(F.m, 1.0 / F.m))
        rng = substream(29, 80)
        words = [tuple(int(s) for s in rng.integers(0, F.m, 80)) for _ in range(3)]
        kw = dict(base_words=words, max_depth=70)
        rep = holder_inverse_check(F, mu, [0.3, 0.8], 1, seed=0, **kw)
        ref = scalar_holder_inverse_check(F, mu, [0.3, 0.8], 1, seed=0, **kw)
        assert holder_bits(rep) == holder_bits(ref)
        assert same_bits(rep.truncation, ref.truncation)
