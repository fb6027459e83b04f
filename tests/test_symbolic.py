"""Words and the contraction weights of the symbolic metric."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fractdim.errors import AlphabetMismatchError, PreconditionError
from fractdim.symbolic import AdaptedMetric, as_word


def ratios_strategy(m):
    return st.lists(
        st.floats(min_value=0.05, max_value=0.95), min_size=m, max_size=m
    )


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
