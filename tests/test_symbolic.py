"""Words and the contraction weights of the symbolic metric."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fractdim import projections
from fractdim.errors import AlphabetMismatchError, PreconditionError
from fractdim.ifs import SimilarityIFS, _prefix_maps, natural_projection
from fractdim.measures import BernoulliMeasure
from fractdim.symbolic import AdaptedMetric, as_word


def ratios_strategy(m):
    return st.lists(
        st.floats(min_value=0.05, max_value=0.95), min_size=m, max_size=m
    )


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


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

    def test_long_word_log_space(self):
        metric = AdaptedMetric([1 / 2, 1 / 2])
        assert same_bits(metric.weight((0,) * 900), 2.0**-900)

    def test_alphabet_mismatch_rejected(self):
        metric = AdaptedMetric([1 / 2, 1 / 4])
        with pytest.raises(AlphabetMismatchError):
            metric.weight((0, 2))

    def test_integral_float_symbols_weigh_as_ints(self):
        metric = AdaptedMetric([1 / 2, 1 / 4])
        assert same_bits(metric.weight((1.0, 1)), metric.weight((1, 1)))
        with pytest.raises(PreconditionError, match="symbol must be an integer, got 0.5"):
            metric.weight((0, 0.5))

    @given(ratios_strategy(3), st.lists(st.integers(0, 2), max_size=7).map(tuple))
    def test_extension_strictly_decreases(self, ratios, word):
        metric = AdaptedMetric(ratios)
        w = metric.weight(word)
        for s in range(3):
            assert metric.weight(word + (s,)) < w


class TestAlphabet:
    def test_as_word_validates(self):
        assert as_word([0, 1, 2]) == (0, 1, 2)
        with pytest.raises(AlphabetMismatchError):
            as_word([0, 3], alphabet_size=2)

    def test_integral_symbols_accepted(self):
        word = as_word([0, 3.0, True, np.uint8(2)], alphabet_size=4)
        assert word == (0, 3, 1, 2)
        assert all(type(s) is int for s in word)
        assert as_word(np.array([1, 0], dtype=np.uint8)) == (1, 0)
        assert as_word(()) == ()

    @pytest.mark.parametrize(
        "seq, bad",
        [
            ([0, 1.7, True], "1.7"),
            ([0, math.nan], "nan"),
            ([math.inf, 0], "inf"),
            (np.array([1.0, -0.5]), "-0.5"),
        ],
    )
    def test_non_integral_symbols_refused(self, seq, bad):
        with pytest.raises(PreconditionError, match=f"symbol must be an integer, got {bad}"):
            as_word(seq, alphabet_size=2)

    @pytest.mark.parametrize("seq", [["1"], [0, "1"], [[0, 1]], [None], 3])
    def test_non_symbols_refused(self, seq):
        with pytest.raises(PreconditionError, match="flat sequence of integer symbols"):
            as_word(seq)

    def test_projection_refuses_fractional_word(self):
        F = SimilarityIFS(ratios=[1 / 3, 1 / 3], translations=[0.0, 2 / 3])
        with pytest.raises(PreconditionError, match="got 0.9"):
            natural_projection(F, [0.9] * 30, 1e-6)


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


# The exact-product oracle.  Every weight in the library is the running
# product of the float ratios in word order from 1.0; fractions.Fraction
# gives the exact product of those same floats.  A product of n floats is
# within n * 2**-53 of the exact one, relative, while it stays a normal
# float, and each subnormal step adds at most 2**-1075 absolute, so
# |weight - exact| <= n * (2**-53 * exact + 2**-1074) at every length.

ORACLE_LENGTH = 900


def _oracle_systems():
    systems = {
        "cantor": ([1 / 3, 1 / 3], [0.0, 2 / 3]),
        "0.75-0.2": ([0.75, 0.2], [0.0, 0.8]),
    }
    rng = np.random.default_rng(2024)
    for m in (2, 3, 4):
        # separated intervals, the first fixing the origin
        ratios = rng.uniform(0.05, 0.9 / m, size=m)
        gap = (1.0 - ratios.sum()) / m
        starts = np.concatenate(([0.0], np.cumsum(ratios + gap)[:-1]))
        systems[f"random-{m}"] = (ratios.tolist(), starts.tolist())
    return systems


ORACLE_SYSTEMS = _oracle_systems()


def _oracle_case(name):
    ratios, translations = ORACLE_SYSTEMS[name]
    F = SimilarityIFS(ratios=ratios, translations=translations)
    rng = np.random.default_rng([2024, sorted(ORACLE_SYSTEMS).index(name)])
    word = tuple(rng.integers(0, F.m, ORACLE_LENGTH).tolist())
    return F, word


def _sequential(ratios, word):
    """The running product and the exact product of every prefix of word."""
    seq, exact = [1.0], [Fraction(1)]
    for s in word:
        seq.append(seq[-1] * ratios[s])
        exact.append(exact[-1] * Fraction(ratios[s]))
    return seq, exact


class TestExactProductOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_weight_and_psi_are_the_running_product(self, name):
        F, word = _oracle_case(name)
        metric = AdaptedMetric(F.ratios)
        seq, exact = _sequential(metric.ratios, word)
        psi, _ = _prefix_maps(F, np.array(word, dtype=np.intp))
        for n in range(ORACLE_LENGTH + 1):
            assert same_bits(metric.weight(word[:n]), seq[n]), n
            assert same_bits(psi[n], seq[n]), n
            slack = n * (exact[n] / 2**53 + Fraction(1, 2**1074))
            assert abs(Fraction(seq[n]) - exact[n]) <= slack, n

    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_holder_rho_is_the_running_product(self, name, monkeypatch):
        F, word = _oracle_case(name)
        seq, _ = _sequential(AdaptedMetric(F.ratios).ratios, word)
        calls = []

        def spy(ifs, sym):
            out = prefix_weights(ifs, sym)
            calls.append(out)
            return out

        prefix_weights = projections._prefix_weights
        monkeypatch.setattr(projections, "_prefix_weights", spy)
        mu = BernoulliMeasure(np.full(F.m, 1.0 / F.m))
        rep = projections.holder_inverse_check(
            F, mu, [0.5], 1, seed=0, base_words=[word], max_depth=ORACLE_LENGTH - 1
        )
        # the first call weighs the base words: rho at depth d is column d - 1
        assert calls[0].tobytes() == np.array([seq]).tobytes()
        assert same_bits(rep.truncation, seq[-1] * F.radius)

    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_ede_diam_is_the_running_product(self, name, monkeypatch):
        # the coded point of 0^L sits at the first map's fixed point, the
        # origin; the search stops (partial) at the depth where the
        # enclosures fall below float resolution, and on 0.75-0.2 it never does
        monkeypatch.setenv("FRACTDIM_BUDGET", "20000")
        F, _ = _oracle_case(name)
        word = (0,) * ORACLE_LENGTH
        seq, _ = _sequential(AdaptedMetric(F.ratios).ratios, word)
        rep = projections.ede_check(F, word, range(1, ORACLE_LENGTH + 1), 0.1, tol=1e-12)
        assert rep.depths.size > 30
        assert name != "0.75-0.2" or rep.depths.size == ORACLE_LENGTH
        for n, diam in zip(rep.depths.tolist(), rep.diam):
            assert same_bits(diam, seq[n] * 2.0 * F.radius), n
