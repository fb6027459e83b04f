"""The symbol-column samplers and the in-place Horner against their oracles.

The oracles are the row-major samplers and the out-of-place projection
that the column layout replaced, kept verbatim: int64 words in C order,
one strided gather per column, and a fresh point array per Horner step.
Every sampled word and every projected point must match them bit for bit.
"""

import math
import sys
import time

import numpy as np
import pytest

from fractdim import ifs as ifs_module
from fractdim.ifs import (
    _STREAM_POINTS,
    SimilarityIFS,
    _project_batch,
    _projection_depth,
    sample_points,
)
from fractdim.measures import BernoulliMeasure, MarkovMeasure
from fractdim.projections import _greedy_enemy_leaves
from fractdim.runtime import CHUNK, run_chunks, substream


def oracle_project_batch(ifs, words):
    """Apply f_w(center) for a batch of equal-length words (rows)."""
    count = words.shape[0]
    x = np.broadcast_to(ifs.center, (count, ifs.ambient_dim)).copy()
    straight = ifs._straight
    for j in range(words.shape[1] - 1, -1, -1):
        sym = words[:, j]
        if straight:
            x = ifs.ratios[sym, None] * x + ifs.translations[sym]
        else:
            x = (
                ifs.ratios[sym, None] * np.einsum("kij,kj->ki", ifs.orthogonal[sym], x)
                + ifs.translations[sym]
            )
    return x


def oracle_markov_batch(self, count, length, rng):
    """count words of the given length; a word no longer than the order
    is the head of a stationary block."""
    count, length = int(count), int(length)
    m, k = self.m, self.order
    cdf0 = np.cumsum(self.stationary)
    states = np.searchsorted(cdf0, rng.random(count), side="right")
    states = np.minimum(states, self.stationary.size - 1)
    u = rng.random((count, max(length - k, 0)))
    out = np.empty((count, k + u.shape[1]), dtype=np.int64)
    tmp = states.copy()
    for j in range(k - 1, -1, -1):
        out[:, j] = tmp % m
        tmp //= m
    kernel_cdf = np.cumsum(self.kernel, axis=1)
    for t in range(u.shape[1]):
        rows = kernel_cdf[states]
        sym = (rows < u[:, t][:, None]).sum(axis=1)
        sym = np.minimum(sym, m - 1)
        out[:, k + t] = sym
        states = (states % m ** (k - 1)) * m + sym
    return out[:, :length]


def oracle_bernoulli_batch(self, count, length, rng):
    cdf = np.cumsum(self.p)
    u = rng.random((int(count), int(length)))
    # symbol = #{j < m - 1 : cdf[j] <= u}, the inverse-CDF draw with
    # u >= cdf[-1] (rounding) sent to the last symbol
    idx = np.zeros(u.shape, dtype=np.int64)
    for c in cdf[:-1]:
        idx += u >= c
    return idx


def oracle_sample_points(ifs, measure, count, tol, seed):
    """The per-chunk blocks of the oracle sampler and projection, joined."""
    depth = _projection_depth(ifs, tol)
    sampler = (
        oracle_bernoulli_batch if isinstance(measure, BernoulliMeasure) else oracle_markov_batch
    )

    def chunk(idx, start, stop):
        rng = substream(seed, _STREAM_POINTS, idx)
        return oracle_project_batch(ifs, sampler(measure, stop - start, depth, rng))

    return np.concatenate(run_chunks(chunk, count), axis=0)


def rotation(a):
    return [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]


SYSTEMS = {
    "equal-1d": SimilarityIFS(ratios=[1 / 3, 1 / 3], translations=[0.0, 2 / 3]),
    "unequal-1d": SimilarityIFS(ratios=[0.2, 0.45, 0.3], translations=[0.0, 0.25, 0.7]),
    "equal-2d": SimilarityIFS(
        ratios=[1 / 3] * 4,
        translations=[[0, 0], [2 / 3, 0], [0, 2 / 3], [2 / 3, 2 / 3]],
    ),
    "unequal-2d": SimilarityIFS(
        ratios=[0.3, 0.25, 0.4], translations=[[0.0, 0.0], [0.7, 0.1], [0.2, 0.6]]
    ),
    "rotated-1d": SimilarityIFS(
        ratios=[0.4, 0.35], translations=[0.0, 0.6], orthogonal=[[[-1.0]], [[1.0]]]
    ),
    "rotated-2d": SimilarityIFS(
        ratios=[0.3] * 3,
        translations=[[0.0, 0.0], [0.7, 0.0], [0.35, 0.6]],
        orthogonal=[rotation(a) for a in (0.7, 2.1, -1.3)],
    ),
}


def weights(m):
    return substream(5, m).dirichlet(np.ones(m))


def assert_column_layout(words, m):
    assert words.dtype == (np.uint8 if m <= 256 else np.int64)
    assert words.T.flags.c_contiguous


class TestProjectBatch:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_column_words_match_the_oracle(self, name):
        ifs = SYSTEMS[name]
        mu = BernoulliMeasure(weights(ifs.m))
        for seed, length in [(0, 1), (1, 15), (2, 40)]:
            words = mu.sample_batch(3000, length, substream(seed, 3))
            assert_column_layout(words, ifs.m)
            want = oracle_project_batch(ifs, words.astype(np.int64))
            assert np.array_equal(_project_batch(ifs, words), want)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_c_order_int64_leaves_match_the_oracle(self, name):
        # the Holder check projects its greedy enemy leaves, row-major int64
        ifs = SYSTEMS[name]
        base = BernoulliMeasure(weights(ifs.m)).sample_batch(40, 12, substream(7, 1))
        x = _project_batch(ifs, base)
        leaves = _greedy_enemy_leaves(ifs, base, x, 6).reshape(-1, 12)
        assert leaves.dtype == np.int64 and leaves.flags.c_contiguous
        assert np.array_equal(_project_batch(ifs, leaves), oracle_project_batch(ifs, leaves))

    def test_fills_the_given_slice(self):
        ifs = SYSTEMS["unequal-2d"]
        words = BernoulliMeasure(weights(3)).sample_batch(500, 20, substream(8))
        out = np.full((700, 2), np.nan)
        got = _project_batch(ifs, words, out=out[100:600])
        assert np.shares_memory(got, out)
        assert np.array_equal(out[100:600], oracle_project_batch(ifs, words.astype(np.int64)))
        assert np.isnan(out[:100]).all() and np.isnan(out[600:]).all()


class TestSamplers:
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 256, 300])
    def test_bernoulli_matches_the_oracle(self, m):
        mu = BernoulliMeasure(weights(m) if m > 1 else [1.0])
        for length in (0, 1, 17):
            got = mu.sample_batch(2000, length, substream(9, length))
            assert got.shape == (2000, length)
            assert_column_layout(got, m)
            assert np.array_equal(got, oracle_bernoulli_batch(mu, 2000, length, substream(9, length)))

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    def test_markov_matches_the_oracle(self, order, m):
        rng = substream(10, order, m)
        kernel = rng.dirichlet(np.ones(m), size=m**order)
        # a forbidden step out of state 0 keeps the graph connected and
        # puts a cdf tie (equal neighbouring entries, or a zero) in play
        kernel[0, m - 2] = 0.0
        kernel /= kernel.sum(axis=1, keepdims=True)
        nu = MarkovMeasure.from_kernel(kernel, order)
        for length in (0, 1, order, order + 1, 25):
            got = nu.sample_batch(3000, length, substream(11, length))
            assert got.shape == (3000, length)
            assert_column_layout(got, m)
            want = oracle_markov_batch(nu, 3000, length, substream(11, length))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", [1, 2])
    def test_markov_draws_at_cdf_entries_keep_the_strict_rule(self, order):
        # a draw equal to a cdf entry does not pass it: the walk takes the
        # symbol whose cdf entry it equals, as the oracle's strict < does
        nu = MarkovMeasure.from_kernel(
            substream(14, order).dirichlet(np.ones(3), size=3**order), order
        )
        cdf = np.cumsum(nu.kernel, axis=1).ravel()
        draws = np.concatenate(([0.0], cdf, np.nextafter(cdf, 1.0)))
        draws = np.resize(draws[draws < 1.0], (400, 9))

        class Fixed:
            def __init__(self):
                self.calls = 0

            def random(self, shape):
                self.calls += 1
                return substream(15).random(shape) if self.calls == 1 else draws

        got = nu.sample_batch(400, 9 + order, Fixed())
        assert np.array_equal(got, oracle_markov_batch(nu, 400, 9 + order, Fixed()))

    def test_markov_over_300_symbols_is_int64(self):
        nu = MarkovMeasure.from_kernel(np.full((300, 300), 1 / 300), 1)
        got = nu.sample_batch(500, 6, substream(12))
        assert_column_layout(got, 300)
        assert np.array_equal(got, oracle_markov_batch(nu, 500, 6, substream(12)))


class TestSamplePoints:
    @pytest.mark.parametrize(
        "name, measure",
        [
            ("unequal-1d", BernoulliMeasure([0.25, 0.15, 0.6])),
            ("rotated-2d", MarkovMeasure.from_kernel(
                [[0.2, 0.5, 0.3], [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]], 1)),
        ],
    )
    def test_bytes_match_the_oracle_at_any_worker_count(self, name, measure):
        ifs = SYSTEMS[name]
        count = 2 * CHUNK + 1234
        want = oracle_sample_points(ifs, measure, count, tol=1e-6, seed=13).tobytes()
        for workers in (1, 2, 3):
            cloud = sample_points(ifs, measure, count, tol=1e-6, seed=13, workers=workers)
            assert cloud.points.tobytes() == want

    def test_threads_fill_disjoint_slices_under_frequent_switches(self):
        # more workers than cores and a short switch interval interleave the
        # chunks' in-place writes into the shared cloud as much as possible
        ifs, mu = SYSTEMS["equal-1d"], BernoulliMeasure([0.3, 0.7])
        count = 5 * CHUNK + 7
        want = oracle_sample_points(ifs, mu, count, tol=1e-6, seed=16).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            cloud = sample_points(ifs, mu, count, tol=1e-6, seed=16, workers=6)
            assert time.perf_counter() - start < 30.0
        finally:
            sys.setswitchinterval(interval)
        assert cloud.points.tobytes() == want

    def test_cloud_takes_the_buffer_the_chunks_filled(self, monkeypatch):
        # no copy at the end: the cloud's points are the slices the chunks
        # projected into
        filled = []

        def recorded(ifs, words, out=None):
            filled.append(out)
            return _project_batch(ifs, words, out=out)

        monkeypatch.setattr(ifs_module, "_project_batch", recorded)
        ifs, mu = SYSTEMS["equal-1d"], BernoulliMeasure([0.3, 0.7])
        cloud = sample_points(ifs, mu, 2 * CHUNK + 5, tol=1e-6, seed=3, workers=2)
        assert len(filled) == 3
        assert all(np.shares_memory(cloud.points, out) for out in filled)
        assert not cloud.points.flags.writeable
