"""Word combinatorics and the contraction-weighted metric."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractdim.errors import (
    AlphabetMismatchError,
    PreconditionError,
    WordTooShortError,
)
from fractdim.symbolic import (
    AdaptedMetric,
    as_word,
    common_prefix,
)


def ratios_strategy(m):
    return st.lists(
        st.floats(min_value=0.05, max_value=0.95), min_size=m, max_size=m
    )


words = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=8).map(
    tuple
)


class TestCommonPrefix:
    def test_disagree_at_first_symbol(self):
        assert common_prefix((0, 1, 1), (1, 1, 1)) == ()

    def test_partial_agreement(self):
        assert common_prefix((0, 1, 0, 1), (0, 1, 1, 1)) == (0, 1)

    def test_prefix_of_longer_word(self):
        assert common_prefix((0, 0), (0, 0, 1)) == (0, 0)

    def test_empty_word(self):
        assert common_prefix((), (1, 0)) == ()

    @given(words, words)
    def test_is_prefix_of_both(self, a, b):
        p = common_prefix(a, b)
        assert a[: len(p)] == p
        assert b[: len(p)] == p
        # maximality: next symbols differ or one word ends
        if len(a) > len(p) and len(b) > len(p):
            assert a[len(p)] != b[len(p)]


class TestWeight:
    def test_equal_ratios(self):
        metric = AdaptedMetric([1 / 3, 1 / 3])
        assert metric.weight((0, 1, 0)) == pytest.approx((1 / 3) ** 3, abs=1e-15)

    def test_mixed_ratios(self):
        metric = AdaptedMetric([1 / 2, 1 / 4])
        assert metric.weight((0, 1, 1)) == pytest.approx(1 / 32, abs=1e-15)

    def test_empty_word_weight_one(self):
        metric = AdaptedMetric([1 / 2, 1 / 4])
        assert metric.weight(()) == 1.0
        assert metric.log_weight(()) == 0.0

    def test_long_word_log_space(self):
        metric = AdaptedMetric([1 / 2, 1 / 2])
        w = metric.weight((0,) * 900)
        assert w == pytest.approx(math.exp(900 * math.log(0.5)), rel=1e-12)

    def test_alphabet_mismatch_rejected(self):
        metric = AdaptedMetric([1 / 2, 1 / 4])
        with pytest.raises(AlphabetMismatchError):
            metric.weight((0, 2))

    @given(ratios_strategy(3), st.lists(st.integers(0, 2), max_size=7).map(tuple))
    def test_extension_strictly_decreases(self, ratios, word):
        metric = AdaptedMetric(ratios)
        w = metric.weight(word)
        for s in range(3):
            assert metric.weight(word + (s,)) < w

    @given(ratios_strategy(2), st.lists(st.integers(0, 1), max_size=12).map(tuple))
    def test_log_weight_consistent(self, ratios, word):
        metric = AdaptedMetric(ratios)
        assert metric.log_weight(word) == pytest.approx(
            math.log(metric.weight(word)), abs=1e-12
        )


class TestDistance:
    def test_split_at_root(self):
        metric = AdaptedMetric([1 / 3, 1 / 3])
        d = metric.distance((0, 1), (1, 1))
        assert d.decided and d.value == 1.0 and d.split_depth == 0

    def test_split_below_shared_prefix(self):
        metric = AdaptedMetric([1 / 2, 1 / 4])
        d = metric.distance((0, 1, 0), (0, 1, 1))
        assert d.decided
        assert d.value == pytest.approx(1 / 8, abs=1e-15)

    def test_prefix_pair_is_undecided(self):
        metric = AdaptedMetric([1 / 2, 1 / 4])
        d = metric.distance((0, 0), (0, 0, 1))
        assert not d.decided
        assert d.value == pytest.approx(1 / 4, abs=1e-15)

    def test_identical_truncations_undecided(self):
        metric = AdaptedMetric([1 / 2, 1 / 2])
        d = metric.distance((0, 1), (0, 1))
        assert not d.decided

    def test_ultrametric_exhaustive_binary(self):
        # all decided triples over binary words of length exactly 4
        metric = AdaptedMetric([0.5, 0.3])
        all_words = list(itertools.product(range(2), repeat=4))
        for a, b, c in itertools.product(all_words, repeat=3):
            dab, dac, dcb = (
                metric.distance(a, b),
                metric.distance(a, c),
                metric.distance(c, b),
            )
            if dab.decided and dac.decided and dcb.decided:
                assert dab.value <= max(dac.value, dcb.value) + 1e-15

    @given(
        ratios_strategy(3),
        st.lists(st.integers(0, 2), min_size=6, max_size=8).map(tuple),
        st.lists(st.integers(0, 2), min_size=6, max_size=8).map(tuple),
        st.lists(st.integers(0, 2), min_size=6, max_size=8).map(tuple),
    )
    @settings(max_examples=200)
    def test_ultrametric_random_ternary(self, ratios, a, b, c):
        metric = AdaptedMetric(ratios)
        dab, dac, dcb = (
            metric.distance(a, b),
            metric.distance(a, c),
            metric.distance(c, b),
        )
        if dab.decided and dac.decided and dcb.decided:
            assert dab.value <= max(dac.value, dcb.value) + 1e-15

    def test_symmetry(self):
        metric = AdaptedMetric([0.4, 0.7, 0.2])
        a, b = (0, 2, 1, 1), (0, 2, 0, 1)
        assert metric.distance(a, b).value == metric.distance(b, a).value


class TestCylinderDepth:
    def test_equal_thirds(self):
        metric = AdaptedMetric([1 / 3, 1 / 3])
        res = metric.cylinder_depth((0,) * 10, 0.2)
        assert res.depth == 1
        assert res.weight_at_depth == pytest.approx(1 / 3)
        assert res.weight_below == pytest.approx(1 / 9)

    def test_boundary_radius_inclusive_above(self):
        # r == weight at depth 2 exactly: crossing uses weight(w[:3]) < r <= weight(w[:2])
        metric = AdaptedMetric([1 / 3, 1 / 3])
        res = metric.cylinder_depth((0,) * 10, 1 / 9)
        assert res.depth == 2

    def test_mixed_ratios(self):
        metric = AdaptedMetric([1 / 2, 1 / 4])
        # word 0,1,0,...: weights 1/2, 1/8, 1/16
        res = metric.cylinder_depth((0, 1, 0, 0, 0), 0.1)
        assert res.depth == 2
        assert res.weight_at_depth == pytest.approx(1 / 8)

    def test_radius_too_large_rejected(self):
        metric = AdaptedMetric([1 / 2, 1 / 4])
        with pytest.raises(PreconditionError):
            metric.cylinder_depth((0, 1), 0.3)

    def test_word_too_short_reports_sufficient_length(self):
        metric = AdaptedMetric([1 / 2, 1 / 2])
        with pytest.raises(WordTooShortError) as exc:
            metric.cylinder_depth((0, 1), 0.01)
        need = exc.value.required_length
        # certified: any word of that length brackets the radius
        assert metric.cylinder_depth((0,) * need, 0.01).depth <= need - 1

    @given(
        ratios_strategy(2),
        st.lists(st.integers(0, 1), min_size=40, max_size=40).map(tuple),
        st.floats(min_value=1e-9, max_value=0.04),
    )
    @settings(max_examples=300)
    def test_depth_invariants(self, ratios, word, r):
        metric = AdaptedMetric(ratios)
        if r >= metric.gamma_min:
            return
        try:
            res = metric.cylinder_depth(word, r)
        except WordTooShortError as exc:
            # legitimate when gamma is large; the reported length must work
            assert exc.required_length > len(word)
            return
        assert res.depth >= 1
        assert res.weight_below < r <= res.weight_at_depth
        # certified depth cap
        assert res.depth <= res.depth_cap + 1e-9

    def test_ball_cylinder_inclusions_enumerated(self):
        # closed ball semantics: tau in [w[:n+1]] => d(w,tau) <= r,
        # and d(w,tau) <= r => tau in [w[:n]]
        metric = AdaptedMetric([0.5, 0.3, 0.45])
        word = (0, 2, 1, 0, 1, 2)
        r = 0.021
        res = metric.cylinder_depth(word, r)
        n = res.depth
        for tau in itertools.product(range(3), repeat=len(word)):
            d = metric.distance(word, tau)
            if not d.decided:
                continue
            if tau[: n + 1] == word[: n + 1]:
                assert d.value <= res.weight_at_depth
            if d.value <= r:
                assert tau[:n] == word[:n]

    def test_doubled_radius_climbs_bounded_levels(self):
        # with gamma^N <= 1/2, a ball of radius 2r stays inside [w[:n-N]]
        metric = AdaptedMetric([0.6, 0.55])
        gamma = metric.gamma
        N = math.ceil(math.log(0.5) / math.log(gamma))
        word = (0, 1, 1, 0, 1, 0, 0, 1, 1, 0)
        r = 0.009
        n = metric.cylinder_depth(word, r).depth
        for tau in itertools.product(range(2), repeat=len(word)):
            d = metric.distance(word, tau)
            if d.decided and d.value <= 2 * r:
                assert tau[: max(n - N, 0)] == word[: max(n - N, 0)]


class TestAlphabet:
    def test_as_word_validates(self):
        assert as_word([0, 1, 2]) == (0, 1, 2)
        with pytest.raises(AlphabetMismatchError):
            as_word([0, 3], alphabet_size=2)


class TestMetricValidation:
    def test_single_ratio_rejected(self):
        with pytest.raises(PreconditionError):
            AdaptedMetric([0.5])

    def test_ratio_one_rejected(self):
        with pytest.raises(PreconditionError):
            AdaptedMetric([0.5, 1.0])

    def test_gamma_fields(self):
        metric = AdaptedMetric([0.2, 0.7, 0.4])
        assert metric.gamma == 0.7
        assert metric.gamma_min == 0.2
