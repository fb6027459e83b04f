"""Sequence-space measure models: masses, entropy, approximation, Gibbs states."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.special import logsumexp

from fractdim.errors import BudgetExceededError, EstimationError, PreconditionError
from fractdim.measures import (
    BernoulliMeasure,
    GibbsMeasure,
    LocallyConstantPotential,
    MarkovMeasure,
    _gibbs_constant,
    _perron_root,
    _state_operator,
    _straddle_bounds,
    _strongly_connected,
    _xlogx,
    encode_word,
    gibbs_from_potential,
    gibbs_ratio_bounds,
    markov_approximation,
    relative_entropy,
)
from fractdim.runtime import check_table_budget, substream


def two_state_chain(a=0.9, b=0.9):
    """Order-1 chain staying put with prob a resp. b."""
    kernel = np.array([[a, 1 - a], [1 - b, b]])
    return MarkovMeasure.from_kernel(kernel, order=1)


prob2 = st.floats(min_value=0.05, max_value=0.95)


def random_markov(order, m, rng):
    kernel = rng.dirichlet(np.ones(m), size=m**order)
    return MarkovMeasure.from_kernel(kernel, order=order)


def decode_word(code, m, length):
    """Symbols of a word code, most significant first: encode_word's inverse."""
    out = []
    for _ in range(length):
        out.append(int(code % m))
        code //= m
    return tuple(reversed(out))


class TestEncoding:
    def test_round_trip(self):
        for word in itertools.product(range(3), repeat=4):
            assert decode_word(encode_word(word, 3), 3, 4) == word


class TestBernoulli:
    def test_cylinder_mass(self):
        mu = BernoulliMeasure([0.5, 0.5])
        assert mu.cylinder_mass((0, 1, 1)) == pytest.approx(0.125, abs=1e-15)
        assert mu.cylinder_mass(()) == 1.0

    def test_zero_weight_supported(self):
        mu = BernoulliMeasure([1.0, 0.0])
        assert mu.cylinder_mass((0, 0)) == 1.0
        assert mu.cylinder_mass((0, 1)) == 0.0
        assert mu.entropy() == 0.0

    def test_entropy(self):
        mu = BernoulliMeasure([0.25, 0.75])
        expect = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert mu.entropy() == pytest.approx(expect, abs=1e-14)

    def test_marginal_sums_to_one(self):
        mu = BernoulliMeasure([0.2, 0.3, 0.5])
        for n in range(5):
            table = mu.marginal(n)
            assert table.size == 3**n
            assert table.sum() == pytest.approx(1.0, abs=1e-12 * 3**n)

    @given(prob2, st.lists(st.integers(0, 1), min_size=0, max_size=6).map(tuple))
    def test_extension_never_increases_mass(self, p, word):
        mu = BernoulliMeasure([p, 1 - p])
        m0 = mu.cylinder_mass(word)
        for s in (0, 1):
            assert mu.cylinder_mass(word + (s,)) <= m0 + 1e-15


class ReferenceBernoulli:
    """The product-measure methods of the Bernoulli model before it became an
    order-1 MarkovMeasure, kept verbatim as an oracle."""

    def __init__(self, p):
        self.p = np.array(p, dtype=float)

    @property
    def m(self):
        return int(self.p.size)

    def cylinder_mass(self, word):
        out = 1.0
        for s in word:
            if not 0 <= s < self.m:
                raise PreconditionError(f"symbol {s} outside alphabet of size {self.m}")
            out *= self.p[s]
        return float(out)

    def log_cylinder_mass(self, word):
        mass = self.cylinder_mass(word)
        return math.log(mass) if mass > 0 else -math.inf

    def marginal(self, n):
        """Flat length-m**n table of cylinder masses, lexicographic order."""
        n = int(n)
        if n < 0:
            raise PreconditionError("marginal level must be >= 0")
        check_table_budget(self.m, n, "marginal table")
        table = np.ones(1)
        for _ in range(n):
            table = (table[:, None] * self.p[None, :]).ravel()
        return table

    def entropy(self):
        return float(-_xlogx(self.p).sum())


def random_weights(rng):
    """Weight vectors on 1 to 5 symbols, some with zero entries."""
    for m in range(1, 6):
        for _ in range(8):
            p = rng.dirichlet(np.ones(m))
            if m > 1 and rng.random() < 0.5:
                p[rng.integers(m)] = 0.0
            yield p / p.sum()


class TestBernoulliIsOrderOneMarkov:
    def test_is_a_markov_measure_with_identical_rows(self):
        mu = BernoulliMeasure([0.2, 0.0, 0.8])
        assert isinstance(mu, MarkovMeasure)
        assert mu.order == 1 and mu.m == 3
        assert np.array_equal(mu.stationary, mu.p)
        assert np.array_equal(mu.kernel, np.tile(mu.p, (3, 1)))

    def test_marginals_equal_the_product_tables_bitwise(self):
        for p in random_weights(substream(41, 0)):
            mu = BernoulliMeasure(p)
            ref = ReferenceBernoulli(mu.p)
            for n in range(1, 7):
                assert mu.marginal(n).tobytes() == ref.marginal(n).tobytes()
            assert mu.marginal(0) == pytest.approx([1.0], rel=1e-15)

    def test_masses_and_entropy_match_the_product_formulas(self):
        rng = substream(41, 1)
        for p in random_weights(rng):
            mu = BernoulliMeasure(p)
            ref = ReferenceBernoulli(mu.p)
            assert mu.entropy() == pytest.approx(ref.entropy(), rel=1e-15, abs=0)
            for length in range(4):
                for word in itertools.product(range(mu.m), repeat=length):
                    forbidden = ref.log_cylinder_mass(word) == -math.inf
                    assert (mu.log_cylinder_mass(word) == -math.inf) == forbidden
                    got, want = mu.cylinder_mass(word), ref.cylinder_mass(word)
                    if length == 0:
                        # the empty word's mass is sum(p), 1 up to rounding
                        assert got == pytest.approx(want, rel=1e-15, abs=0)
                        continue
                    # the same factors, multiplied and log-summed in order
                    assert got == want
                    if want > 0:
                        logs = sum(math.log(mu.p[s]) for s in word)
                        assert mu.log_cylinder_mass(word) == logs

    def test_symbols_outside_the_alphabet_rejected(self):
        mu = BernoulliMeasure([0.5, 0.5])
        for word in [(2,), (0, 2), (0, 1, -1)]:
            with pytest.raises(PreconditionError):
                mu.cylinder_mass(word)


def reference_power_stationary(kernel, order):
    """Stationary vector by lazy power iteration from uniform.

    The former `MarkovMeasure.from_kernel` solve: it stops once a lazy step
    moves no entry by more than 1e-13, which leaves an error of about
    1e-13 over the spectral gap.
    """
    op = _state_operator(kernel, order)
    dist = np.full(op.shape[0], 1.0 / op.shape[0])
    for _ in range(1_000_000):
        nxt = dist @ op
        nxt = 0.5 * (dist + nxt / nxt.sum())
        if np.max(np.abs(nxt - dist)) <= 1e-13:
            return nxt / nxt.sum()
        dist = nxt
    raise EstimationError("power iteration failed to converge")


def reference_state_operator(kernel, order):
    """The state operator by one Python step per (state, symbol)."""
    n, m = kernel.shape
    op = np.zeros((n, n))
    for s in range(n):
        base = (s % m ** (order - 1)) * m
        for a in range(m):
            op[s, base + a] += kernel[s, a]
    return op


class TestStationarySolve:
    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(20240607)
        for trial in range(90):
            m = int(rng.integers(2, 4))
            order = int(rng.integers(1, 4))
            kernel = rng.dirichlet(np.full(m, (0.3, 1.0, 5.0)[trial % 3]), size=m**order)
            got = MarkovMeasure.from_kernel(kernel, order).stationary
            assert np.max(np.abs(got - reference_power_stationary(kernel, order))) <= 1e-8
            # the solve is stationary to rounding, the oracle only to ~1e-13
            assert np.max(np.abs(got @ _state_operator(kernel, order) - got)) <= 1e-15

    def test_state_operator_matches_loop_oracle(self):
        rng = np.random.default_rng(20261020)
        for _ in range(60):
            m, order = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            kernel = rng.dirichlet(np.ones(m), size=m**order)
            kernel[rng.random(kernel.shape) < 0.3] = 0.0
            got = _state_operator(kernel, order)
            assert np.array_equal(got, reference_state_operator(kernel, order))

    def test_slow_mixing_chain(self):
        # lazy steps contract by 1 - 3 * 2**-25 here, so the power iteration
        # from uniform runs out of its 10**6 steps (about 4 s); the entries
        # are exact in binary
        a, b = 2.0**-24, 2.0**-23
        mu = MarkovMeasure.from_kernel([[1 - a, a], [b, 1 - b]], 1)
        assert np.max(np.abs(mu.stationary - [2 / 3, 1 / 3])) <= 1e-15

    def test_periodic_chains(self):
        cycle = MarkovMeasure.from_kernel([[0.0, 1.0], [1.0, 0.0]], 1)
        assert np.all(cycle.stationary == 0.5)
        # order 2 on the states 00 -> 01 -> 11 -> 10 -> 00, period 4
        kernel = [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
        assert np.all(MarkovMeasure.from_kernel(kernel, 2).stationary == 0.25)

class TestMarkov:
    def test_uniform_symmetric_chain_mass(self):
        nu = two_state_chain(0.9, 0.9)
        assert nu.stationary == pytest.approx([0.5, 0.5], abs=1e-12)
        assert nu.cylinder_mass((0, 1)) == pytest.approx(0.05, abs=1e-12)

    def test_entropy_of_symmetric_chain(self):
        nu = two_state_chain(0.9, 0.9)
        expect = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert nu.entropy() == pytest.approx(expect, abs=1e-12)
        assert nu.entropy() == pytest.approx(0.3250829733914482, abs=1e-12)

    def test_deterministic_cycle_entropy_zero(self):
        kernel = np.array([[0.0, 1.0], [1.0, 0.0]])
        nu = MarkovMeasure.from_kernel(kernel, order=1)
        assert nu.entropy() == pytest.approx(0.0, abs=1e-14)
        assert nu.stationary == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_marginals_consistent_with_masses(self):
        rng = substream(7, 0)
        nu = random_markov(2, 2, rng)
        table = nu.marginal(4)
        for code, mass in enumerate(table):
            word = decode_word(code, 2, 4)
            assert mass == pytest.approx(nu.cylinder_mass(word), abs=1e-13)
        assert table.sum() == pytest.approx(1.0, abs=1e-12 * 16)

    def test_short_word_mass_marginalizes(self):
        rng = substream(11, 0)
        nu = random_markov(3, 2, rng)
        # mass of [0] equals the sum over completions to length 3
        total = sum(
            nu.cylinder_mass((0,) + tail)
            for tail in itertools.product(range(2), repeat=2)
        )
        assert nu.cylinder_mass((0,)) == pytest.approx(total, abs=1e-13)

    def test_bad_stationary_rejected(self):
        kernel = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(PreconditionError):
            MarkovMeasure(order=1, stationary=[0.9, 0.1], kernel=kernel)

    def test_non_normalized_row_rejected(self):
        kernel = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(PreconditionError):
            MarkovMeasure(order=1, stationary=[0.5, 0.5], kernel=kernel)

    def test_from_kernel_requires_strong_connectivity(self):
        with pytest.raises(PreconditionError):
            MarkovMeasure.from_kernel(np.eye(2), order=1)

    @pytest.mark.parametrize(
        "kernel, order",
        [
            ([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]], 2),
            ([[0.2, 0.8], [0.5, 0.5]], 0),
            ([[0.2, 0.8], [0.5, 0.5]], -1),
            ([0.5, 0.5], 1),
            (np.ones((2, 2, 2)) / 2, 1),
        ],
        ids=["rows-not-m**order", "order-0", "order-negative", "1-d", "3-d"],
    )
    def test_from_kernel_rejects_bad_shape(self, kernel, order):
        with pytest.raises(PreconditionError):
            MarkovMeasure.from_kernel(kernel, order)

    @pytest.mark.parametrize("entry", [math.nan, -0.1, math.inf])
    def test_from_kernel_rejects_bad_entry_before_iterating(self, entry):
        # a NaN keeps the positive-entry graph connected, so without the
        # entry check it would reach the stationary solve
        kernel = [[entry, 1.0], [0.5, 0.5]]
        with pytest.raises(
            PreconditionError, match="kernel entries must be finite and non-negative"
        ):
            MarkovMeasure.from_kernel(kernel, 1)


def reference_state_graph(kernel, order):
    """Sparse positive-transition graph on the states: the scipy-era builder."""
    n, m = kernel.shape
    rows, cols = [], []
    for s in range(n):
        base = (s % m ** (order - 1)) * m
        for a in range(m):
            if kernel[s, a] > 0:
                rows.append(s)
                cols.append(base + a)
    data = np.ones(len(rows))
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def reference_connected(graph):
    ncomp, _ = connected_components(graph, directed=True, connection="strong")
    return ncomp == 1


def random_kernel(m, order, rng):
    """Kernel with random zeros; every row keeps one positive entry."""
    n = m**order
    kernel = rng.uniform(0.2, 1.0, size=(n, m))
    kernel[rng.random((n, m)) < rng.uniform(0.2, 0.7)] = 0.0
    empty = ~(kernel > 0).any(axis=1)
    kernel[empty, rng.integers(0, m, size=int(empty.sum()))] = 1.0
    return kernel / kernel.sum(axis=1, keepdims=True)


class TestStrongConnectivity:
    """The two-sweep test against scipy's strong components."""

    def test_empty_graph_not_connected(self):
        assert _strongly_connected(np.zeros((0, 0), dtype=bool)) is False

    def test_random_graphs_match_scipy(self):
        rng = np.random.default_rng(20240601)
        verdicts = []
        for _ in range(2_000):
            n = int(rng.integers(0, 31))
            density = rng.uniform(0.0, min(1.0, 4.0 / max(n, 1)))
            adj = rng.random((n, n)) < density
            got = _strongly_connected(adj)
            expect = reference_connected(sp.csr_matrix(adj.astype(float)))
            assert got == expect, adj
            verdicts.append(got)
        assert 300 <= sum(verdicts) <= 1_700

    def test_random_kernels_match_scipy(self):
        rng = np.random.default_rng(20240602)
        verdicts = []
        for _ in range(300):
            m = int(rng.integers(2, 4))
            order = int(rng.integers(1, 4 if m == 2 else 3))
            kernel = random_kernel(m, order, rng)
            expect = reference_connected(reference_state_graph(kernel, order))
            assert _strongly_connected(_state_operator(kernel, order) > 0) == expect
            try:
                MarkovMeasure.from_kernel(kernel, order)
                rejected = False
            except PreconditionError as exc:
                rejected = "not strongly connected" in str(exc)
            assert rejected == (not expect)
            verdicts.append(expect)
        # at least a sixth of the 300 kernels on each side
        assert 50 <= sum(verdicts) <= 250


class TestRelativeEntropy:
    def test_bernoulli_vs_fair_coin(self):
        mu = BernoulliMeasure([0.45, 0.55])
        nu = BernoulliMeasure([0.5, 0.5])
        expect = 0.45 * math.log(0.9) + 0.55 * math.log(1.1)
        assert relative_entropy(mu, nu) == pytest.approx(expect, abs=1e-12)

    def test_skewed_bernoulli_kl(self):
        mu = BernoulliMeasure([0.25, 0.75])
        nu = BernoulliMeasure([0.5, 0.5])
        expect = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert relative_entropy(mu, nu) == pytest.approx(expect, abs=1e-12)
        assert relative_entropy(mu, nu) == pytest.approx(0.13081203594113697, abs=1e-12)

    def test_self_distance_zero(self):
        nu = two_state_chain(0.8, 0.6)
        assert relative_entropy(nu, nu) == 0.0

    def test_support_failure_is_infinite(self):
        mu = BernoulliMeasure([0.5, 0.5])
        nu = BernoulliMeasure([1.0, 0.0])
        assert relative_entropy(mu, nu) == math.inf

    @given(prob2, prob2, prob2, prob2)
    @settings(max_examples=100)
    def test_nonnegative_and_zero_iff_equal_blocks(self, p, q, a, b):
        mu = two_state_chain(p, q)
        nu = two_state_chain(a, b)
        val = relative_entropy(mu, nu)
        assert val >= 0.0
        gap = np.max(np.abs(mu.marginal(2) - nu.marginal(2)))
        if val < 1e-12:
            assert gap < 1e-5
        if gap == 0.0:
            assert val < 1e-12


class TestMarkovApproximation:
    def test_bernoulli_fixed_point(self):
        mu = BernoulliMeasure([0.3, 0.7])
        approx = markov_approximation(mu, 1)
        assert approx.stationary == pytest.approx(mu.p, abs=1e-14)
        assert np.allclose(approx.kernel, np.tile(mu.p, (2, 1)), atol=1e-14)
        assert relative_entropy(mu, approx) == pytest.approx(0.0, abs=1e-14)

    def test_markov_fixed_point_at_own_order(self):
        nu = two_state_chain(0.85, 0.55)
        again = markov_approximation(nu, 1)
        assert np.allclose(again.kernel, nu.kernel, atol=1e-13)
        assert relative_entropy(nu, again) == pytest.approx(0.0, abs=1e-13)

    def test_entropy_gap_identity(self):
        rng = substream(3, 0)
        mu = random_markov(2, 2, rng)
        nu = markov_approximation(mu, 1)
        gap = relative_entropy(mu, nu)
        assert gap == pytest.approx(nu.entropy() - mu.entropy(), abs=1e-12)
        assert gap > 0  # generic order-2 chain is not order-1

    @pytest.mark.parametrize("order", [23, 2**70])
    def test_huge_order_refused_before_the_table(self, order):
        # 2**(2**70) would exhaust memory before any budget comparison
        for mu in (BernoulliMeasure([0.5, 0.5]), two_state_chain(0.85, 0.55)):
            with pytest.raises(BudgetExceededError, match="marginal table"):
                markov_approximation(mu, order)

    def test_distance_non_increasing_in_order(self):
        rng = substream(5, 0)
        mu = random_markov(3, 2, rng)
        dists = [relative_entropy(mu, markov_approximation(mu, k)) for k in (1, 2, 3, 4)]
        for lo, hi in zip(dists[1:], dists[:-1]):
            assert lo <= hi + 1e-12
        # at and beyond the true order the approximation is exact
        assert dists[2] == pytest.approx(0.0, abs=1e-12)
        assert dists[3] == pytest.approx(0.0, abs=1e-12)

    def test_marginal_absolute_continuity(self):
        rng = substream(9, 0)
        mu = random_markov(2, 2, rng)
        nu = markov_approximation(mu, 1)
        for n in range(1, 9):
            mu_n = mu.marginal(n)
            nu_n = nu.marginal(n)
            assert not np.any((mu_n > 0) & (nu_n == 0))


def searchsorted_batch(p, count, length, rng):
    """The inverse-cdf Bernoulli sampler by searchsorted, as an oracle."""
    cdf = np.cumsum(p)
    u = rng.random((int(count), int(length)))
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, p.size - 1).astype(np.int64)


class TestSampling:
    def test_words_shorter_than_the_order_are_block_heads(self):
        nu = random_markov(3, 2, substream(31, 0))
        count = 40_000
        for length in (1, 2, 3):
            batch = nu.sample_batch(count, length, substream(31, length))
            assert batch.shape == (count, length)
            codes = batch @ (2 ** np.arange(length - 1, -1, -1))
            freq = np.bincount(codes, minlength=2**length) / count
            # 5 standard deviations of a frequency near 1/2
            assert np.max(np.abs(freq - nu.marginal(length))) < 5 * math.sqrt(0.25 / count)

    def test_negative_length_rejected(self):
        nu = random_markov(2, 2, substream(31, 0))
        with pytest.raises(PreconditionError):
            nu.sample_batch(10, -1, substream(31, 4))

    def test_deterministic_in_seed(self):
        mu = BernoulliMeasure([0.3, 0.7])
        w1 = mu.sample_batch(1, 1000, substream(42))
        w2 = mu.sample_batch(1, 1000, substream(42))
        assert np.array_equal(w1, w2)
        assert not np.array_equal(w1, mu.sample_batch(1, 1000, substream(43)))

    def test_constant_word_from_dirac_chain(self):
        nu = MarkovMeasure(order=1, stationary=[1.0, 0.0], kernel=np.eye(2))
        word = nu.sample_batch(1, 64, substream(0))
        assert np.all(word == 0)

    def test_bernoulli_frequencies(self):
        mu = BernoulliMeasure([0.3, 0.7])
        n = 100_000
        bound = 4 * math.sqrt(0.3 * 0.7 / n)
        for seed in range(20):
            word = mu.sample_batch(1, n, substream(seed))
            assert abs(word.mean() - 0.7) < bound

    def test_markov_block_frequencies(self):
        nu = two_state_chain(0.8, 0.6)
        word = nu.sample_batch(1, 200_000, substream(1))[0]
        pairs = np.bincount(2 * word[:-1] + word[1:], minlength=4).reshape(2, 2)
        kernel = pairs / pairs.sum(axis=1, keepdims=True)
        freq = np.bincount(word, minlength=2) / word.size
        assert np.max(np.abs(kernel - nu.kernel)) < 0.01
        assert np.max(np.abs(freq - nu.stationary)) < 0.01

    def test_batch_matches_marginal(self):
        nu = two_state_chain(0.9, 0.9)
        rng = substream(12, 0)
        batch = nu.sample_batch(50_000, 2, rng)
        codes = batch[:, 0] * 2 + batch[:, 1]
        freq = np.bincount(codes, minlength=4) / 50_000
        assert np.max(np.abs(freq - nu.marginal(2))) < 0.01

    @pytest.mark.parametrize(
        "p",
        [
            [1.0],
            [0.25, 0.75],
            [0.2, 0.0, 0.8],
            [0.0, 0.0, 0.5, 0.5],
            [0.1, 0.2, 0.3, 0.4, 0.0],
            [0.0, 0.1, 0.2, 0.3, 0.2, 0.2],
            [0.5, 0.5 - 5e-10],
            [1 / 6] * 5 + [1 / 6 - 5e-10],
            [1 / 300] * 300,
        ],
    )
    def test_bernoulli_batch_matches_searchsorted(self, p):
        mu = BernoulliMeasure(p)
        got = mu.sample_batch(4000, 25, substream(3, 1))
        ref = searchsorted_batch(mu.p, 4000, 25, substream(3, 1))
        # words are uint8 symbol columns up to 256 symbols, int64 above
        assert got.dtype == (np.uint8 if mu.m <= 256 else np.int64)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize(
        "p", [[0.25, 0.75], [0.2, 0.0, 0.3, 0.5], [0.5, 0.5 - 5e-10]]
    )
    def test_bernoulli_batch_at_cdf_breakpoints(self, p):
        # draws exactly at a cdf entry, and above a cdf that sums to
        # 1 - 5e-10, take the symbols of the inverse-cdf draw
        mu = BernoulliMeasure(p)
        cdf = np.cumsum(mu.p)
        draws = np.concatenate(([0.0], cdf, np.nextafter(cdf, 0.0), [1.0 - 1e-12]))
        draws = draws[draws < 1.0]

        class Fixed:
            def random(self, shape):
                return draws.reshape(shape)

        got = mu.sample_batch(1, draws.size, Fixed())
        assert np.array_equal(got, searchsorted_batch(mu.p, 1, draws.size, Fixed()))
        assert got[0, -1] == mu.m - 1


def brute_birkhoff_bounds(pot, word):
    """Exact min/max of the length-n Birkhoff sum over the cylinder [word]."""
    n, d, m = len(word), pot.depth, pot.m
    best_lo, best_hi = math.inf, -math.inf
    for tail in itertools.product(range(m), repeat=d - 1):
        full = word + tail
        s = 0.0
        ok = True
        for j in range(n):
            v = pot.table[encode_word(full[j : j + d], m)]
            if v == -math.inf:
                ok = False
                break
            s += v
        if ok:
            best_lo, best_hi = min(best_lo, s), max(best_hi, s)
    return best_lo, best_hi


def reference_straddle_bounds(pot, length):
    """The decode/encode loop over prefixes and tails that _straddle_bounds
    replaced, kept as an oracle."""
    m, d = pot.m, pot.depth
    lo = np.full(m**length, math.inf)
    hi = np.full(m**length, -math.inf)
    for code in range(m**length):
        for tcode in range(m ** (d - 1)):
            full = decode_word(code, m, length) + decode_word(tcode, m, d - 1)
            s = 0.0
            for j in range(length):
                s += pot.table[encode_word(full[j : j + d], m)]
            if s > -math.inf:
                lo[code] = min(lo[code], s)
                hi[code] = max(hi[code], s)
    return lo, hi


def brute_ratio_bounds(gm, max_length):
    """Per-length min/max Gibbs ratio over positive-mass cylinders, by brute force."""
    pot = gm.potential
    lo, hi, cylinders = [], [], []
    for n in range(1, max_length + 1):
        masses = gm.marginal(n)
        lows, highs = [], []
        for word in itertools.product(range(pot.m), repeat=n):
            mass = masses[encode_word(word, pot.m)]
            if mass == 0:
                continue
            s_lo, s_hi = brute_birkhoff_bounds(pot, word)
            highs.append(mass * math.exp(n * gm.pressure - s_lo))
            lows.append(mass * math.exp(n * gm.pressure - s_hi))
        lo.append(min(lows))
        hi.append(max(highs))
        cylinders.append(len(lows))
    return np.array(lo), np.array(hi), np.array(cylinders)


def _no_111(rng):
    # depth-3 potential that forbids the window 111 (no three 1s in a row),
    # the other windows carry random finite values
    table = rng.normal(scale=0.5, size=8)
    table[7] = -math.inf
    return LocallyConstantPotential(depth=3, m=2, table=table)


def _perron_triplet(matrix):
    """Spectral radius and positive left/right eigenvectors.

    Dense eig supplies the starting point; a damped power iteration then
    certifies positivity and pushes the residual to roundoff.
    """
    n = matrix.shape[0]
    shift = 0.05 * float(matrix.sum(axis=1).max())
    damped = matrix + shift * np.eye(n)

    def lead(mat, init):
        x = np.abs(init) + 1e-12
        x /= x.sum()
        lam = 0.0
        for _ in range(200_000):
            y = mat @ x
            lam = y.sum()
            if np.max(np.abs(y - lam * x)) <= 1e-12 * lam:
                x = y / lam
                break
            x = y / lam
        if np.max(np.abs(mat @ x - lam * x)) > 1e-10 * lam:
            raise EstimationError("power iteration failed to certify eigenvector")
        return lam, x

    vals, vecs = np.linalg.eig(matrix)
    idx = int(np.argmax(np.abs(vals)))
    lam_r, h = lead(damped, vecs[:, idx].real)
    vals_l, vecs_l = np.linalg.eig(matrix.T)
    idx_l = int(np.argmax(np.abs(vals_l)))
    lam_l, v = lead(damped.T, vecs_l[:, idx_l].real)
    rho = 0.5 * (lam_r + lam_l) - shift
    if rho <= 0 or np.any(h <= 0) or np.any(v <= 0):
        raise EstimationError("Perron data is not strictly positive")
    return rho, v, h


def transfer_matrix(pot):
    """W[u, code(u a) mod m**(depth-1)] = exp(phi(u a)), one window at a time."""
    m, n_states = pot.m, pot.m ** (pot.depth - 1)
    W = np.zeros((n_states, n_states))
    for code, weight in enumerate(np.exp(pot.table)):
        W[code // m, code % n_states] = weight
    return W


def reference_gibbs(pot):
    """The former deep-potential Gibbs construction: left and right Perron
    vectors by damped power iteration, stationary law v * h.

    Returns (pressure, v, h, constant) with <v, h> = 1.
    """
    m, n_states = pot.m, pot.m ** (pot.depth - 1)
    W = transfer_matrix(pot)
    rho, v, h = _perron_triplet(W)
    v = v / float(np.dot(v, h))
    pi = v * h
    states = np.arange(n_states)
    targets = (states[:, None] * m + np.arange(m)[None, :]) % n_states
    kernel = W[states[:, None], targets] * h[targets] / (rho * h[:, None])
    kernel = kernel / kernel.sum(axis=1, keepdims=True)
    markov = MarkovMeasure(order=pot.depth - 1, stationary=pi / pi.sum(), kernel=kernel)
    pressure = math.log(rho)
    return pressure, v, h, _gibbs_constant(pot, pressure, markov, v, h, rho)


class TestPerronSolve:
    def random_potentials(self):
        # two periodic transfer matrices (periods 2 and 4), then random ones
        yield LocallyConstantPotential(2, 2, [-math.inf, 0.0, 0.0, -math.inf])
        yield LocallyConstantPotential(3, 2, [-math.inf, 0.3, -math.inf, -0.2,
                                              0.5, -math.inf, 0.1, -math.inf])
        rng = np.random.default_rng(20261019)
        while True:
            m, depth = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            table = rng.normal(scale=0.5, size=m**depth)
            table[rng.random(table.size) < 0.2] = -math.inf
            yield LocallyConstantPotential(depth, m, table)

    def test_matches_power_iteration_oracle(self):
        compared = 0
        for pot in self.random_potentials():
            W = transfer_matrix(pot)
            if not _strongly_connected(W > 0):
                continue
            ref_pressure, ref_v, ref_h, ref_constant = reference_gibbs(pot)
            gm = gibbs_from_potential(pot)
            rho, h = _perron_root(W)
            v = gm.stationary / h
            assert math.log(rho) == gm.pressure
            # the oracle stops once its residual is 1e-12 of the root, which
            # leaves errors of a few 1e-12 over the spectral gap of the damped
            # matrix it iterates on (the solve is exact to 1e-15 on the 2x2
            # closed forms below); h and v are compared in units of their sum
            shift = 0.05 * W.sum(axis=1).max()
            mods = np.sort(np.abs(np.linalg.eigvals(W + shift * np.eye(len(W)))))
            slack = 4e-12 / (1 - mods[-2] / mods[-1])
            ref_v = ref_v / ref_v.sum()
            assert abs(gm.pressure - ref_pressure) <= slack
            assert np.max(np.abs(h - ref_h)) <= slack
            assert np.max(np.abs(v / v.sum() - ref_v)) <= slack
            rel = slack / ref_h.min() + slack / ref_v.min()
            assert gm.constant == pytest.approx(ref_constant, rel=rel, abs=0)
            compared += 1
            if compared == 60:
                break

    @pytest.mark.parametrize(
        "table",
        [[-0.9, -1.6, -0.4, -1.1], [0.3, -0.2, 0.1, 0.5], [-math.inf, 0.4, -0.7, 0.0]],
        ids=["gibbs-bounds-config", "generic", "forbidden-00"],
    )
    def test_two_by_two_pressure_matches_closed_form(self, table):
        a, b, c, d = (math.exp(t) for t in table)
        # largest root of x**2 - (a + d) x + (a d - b c); its discriminant
        # is (a - d)**2 + 4 b c, a sum of non-negative terms
        big = 0.5 * (a + d + math.sqrt((a - d) ** 2 + 4 * b * c))
        gm = gibbs_from_potential(LocallyConstantPotential(2, 2, table))
        assert abs(gm.pressure - math.log(big)) <= 1e-15

    def test_perron_root_refuses_a_reducible_matrix(self):
        with pytest.raises(EstimationError, match="not strictly positive"):
            # the root 2 has right eigenvector (0, 1)
            _perron_root(np.array([[1.0, 0.0], [1.0, 2.0]]))


class TestGibbs:
    def test_depth_one_recovers_bernoulli(self):
        p = np.array([0.2, 0.5, 0.3])
        pot = LocallyConstantPotential(depth=1, m=3, table=np.log(p))
        gm = gibbs_from_potential(pot)
        assert gm.pressure == pytest.approx(0.0, abs=1e-12)
        assert gm.stationary == pytest.approx(p, abs=1e-12)
        assert gm.constant == 1.0

    def test_constant_potential_uniform(self):
        c = -0.35
        pot = LocallyConstantPotential(depth=1, m=2, table=[c, c])
        gm = gibbs_from_potential(pot)
        assert gm.pressure == pytest.approx(math.log(2) + c, abs=1e-12)
        assert gm.stationary == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_golden_mean_shift(self):
        # forbid the word 11; pressure of the zero potential on the
        # remaining subshift is the log of the golden ratio
        table = np.array([0.0, 0.0, 0.0, -math.inf])
        pot = LocallyConstantPotential(depth=2, m=2, table=table)
        gm = gibbs_from_potential(pot)
        golden = (1 + math.sqrt(5)) / 2
        assert gm.pressure == pytest.approx(math.log(golden), abs=1e-10)
        # measure of maximal entropy: entropy equals pressure
        assert gm.entropy() == pytest.approx(gm.pressure, abs=1e-9)
        assert gm.cylinder_mass((1, 1)) == 0.0

    def test_depth_one_pressure_matches_logsumexp(self):
        rng = np.random.default_rng(20240603)
        for _ in range(2_000):
            m = int(rng.integers(1, 9))
            table = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=m)
            table[rng.random(m) < 0.2] = -math.inf
            if not np.isfinite(table).any():
                continue
            pot = LocallyConstantPotential(depth=1, m=m, table=table)
            got = gibbs_from_potential(pot).pressure
            bound = 8 * np.spacing(max(abs(table.max()), 1.0))
            assert abs(got - logsumexp(table)) <= bound

    @pytest.mark.parametrize(
        "pot",
        [LocallyConstantPotential(1, 3, np.log([0.2, 0.5, 0.3])), _no_111(substream(25, 0))],
        ids=["depth-1", "no111-d3"],
    )
    def test_gibbs_state_is_its_markov_measure(self, pot):
        gm = gibbs_from_potential(pot)
        assert isinstance(gm, GibbsMeasure) and isinstance(gm, MarkovMeasure)
        ref = MarkovMeasure(gm.order, gm.stationary, gm.kernel)
        # a chain on the same alphabet that uses only the steps gm allows
        kernel = substream(25, 1).dirichlet(np.ones(gm.m), size=gm.kernel.shape[0])
        kernel = kernel * (gm.kernel > 0)
        mu = MarkovMeasure.from_kernel(kernel / kernel.sum(axis=1, keepdims=True), gm.order)
        assert math.isfinite(relative_entropy(mu, gm))
        assert relative_entropy(mu, gm) == relative_entropy(mu, ref)
        for k in (1, 2, 4):
            got, want = markov_approximation(gm, k), markov_approximation(ref, k)
            assert np.array_equal(got.stationary, want.stationary)
            assert np.array_equal(got.kernel, want.kernel)
        assert _strongly_connected(_state_operator(gm.kernel, gm.order) > 0)
        got = gm.sample_batch(400, 12, substream(25, 2))
        assert np.array_equal(got, ref.sample_batch(400, 12, substream(25, 2)))

    def test_non_irreducible_rejected(self):
        table = np.array([0.0, -math.inf, -math.inf, 0.0])
        pot = LocallyConstantPotential(depth=2, m=2, table=table)
        with pytest.raises(PreconditionError):
            gibbs_from_potential(pot)

    def test_pressure_lipschitz_in_potential(self):
        rng = substream(21, 0)
        for _ in range(25):
            t1 = rng.normal(size=8)
            t2 = t1 + rng.normal(scale=0.3, size=8)
            p1 = gibbs_from_potential(LocallyConstantPotential(3, 2, t1)).pressure
            p2 = gibbs_from_potential(LocallyConstantPotential(3, 2, t2)).pressure
            assert abs(p1 - p2) <= np.max(np.abs(t1 - t2)) + 1e-12

    def test_mass_comparison_with_explicit_constant(self):
        rng = substream(22, 0)
        table = rng.normal(scale=0.8, size=8)
        pot = LocallyConstantPotential(depth=3, m=2, table=table)
        gm = gibbs_from_potential(pot)
        C = gm.constant
        for n in range(1, 11):
            for word in itertools.product(range(2), repeat=n):
                mass = gm.cylinder_mass(word)
                if mass == 0:
                    continue
                s_lo, s_hi = brute_birkhoff_bounds(pot, word)
                ratio_hi = mass * math.exp(n * gm.pressure - s_lo)
                ratio_lo = mass * math.exp(n * gm.pressure - s_hi)
                assert ratio_hi <= C * (1 + 1e-9)
                assert ratio_lo >= (1 / C) * (1 - 1e-9)

    @pytest.mark.parametrize(
        "make, max_length",
        [
            (lambda rng: LocallyConstantPotential(1, 3, rng.normal(size=3)), 6),
            (lambda rng: LocallyConstantPotential(2, 2, rng.normal(size=4)), 8),
            (lambda rng: LocallyConstantPotential(2, 3, rng.normal(size=9)), 6),
            (lambda rng: LocallyConstantPotential(3, 2, rng.normal(scale=0.8, size=8)), 8),
            (lambda rng: LocallyConstantPotential(3, 3, rng.normal(size=27)), 5),
            (lambda rng: LocallyConstantPotential(2, 2, [0.0, 0.0, 0.0, -math.inf]), 10),
            (_no_111, 8),
        ],
        ids=["d1m3", "d2m2", "d2m3", "d3m2", "d3m3", "golden-d2", "no111-d3"],
    )
    def test_ratio_bounds_match_brute_force(self, make, max_length):
        # lengths from 1 cover n < depth - 1 for the depth-3 potentials
        gm = gibbs_from_potential(make(substream(24, 0)))
        lo, hi, cylinders = gibbs_ratio_bounds(gm, max_length)
        ref_lo, ref_hi, ref_cylinders = brute_ratio_bounds(gm, max_length)
        np.testing.assert_allclose(lo, ref_lo, rtol=1e-12, atol=0)
        np.testing.assert_allclose(hi, ref_hi, rtol=1e-12, atol=0)
        assert np.array_equal(cylinders, ref_cylinders)
        assert np.all(hi <= gm.constant * (1 + 1e-9))
        assert np.all(lo >= (1 / gm.constant) * (1 - 1e-9))

    def test_straddle_bounds_match_the_loop_bitwise(self):
        rng = substream(25, 0)
        for depth, m, _ in itertools.product((2, 3, 4), (2, 3), range(4)):
            table = rng.normal(size=m**depth)
            table[rng.random(table.size) < 0.3] = -math.inf
            table[rng.random(table.size) < 0.1] = -0.0
            pot = LocallyConstantPotential(depth, m, table)
            for length in range(depth):
                lo, hi = _straddle_bounds(pot, length)
                ref_lo, ref_hi = reference_straddle_bounds(pot, length)
                assert lo.tobytes() == ref_lo.tobytes()
                assert hi.tobytes() == ref_hi.tobytes()

    def test_depth_two_markov_matches_direct_mass(self):
        rng = substream(23, 0)
        table = rng.normal(scale=0.5, size=4)
        pot = LocallyConstantPotential(depth=2, m=2, table=table)
        gm = gibbs_from_potential(pot)
        # cylinder masses are shift invariant and sum to 1 per level
        for n in range(1, 7):
            tbl = gm.marginal(n)
            assert tbl.sum() == pytest.approx(1.0, abs=1e-11)

    def test_overflowing_potential_rejected(self):
        pot = LocallyConstantPotential(depth=2, m=2, table=[800.0, 0.0, 0.0, 0.0])
        with pytest.raises(PreconditionError):
            gibbs_from_potential(pot)
