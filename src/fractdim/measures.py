"""Shift-invariant measures on sequence space: k-step Markov measures, of
which Bernoulli measures (order 1, identical kernel rows) and Gibbs states of
locally constant potentials are special cases.

Words of length k are encoded as integers in base m, most significant symbol
first, so the state of a k-step chain after reading w is code(w) mod m**k.
Every model exposes level-n marginal tables (the masses of all length-n
cylinders), entropy in nats, and deterministic batch sampling.

A stationary law is one linear solve on the state chain, certified by the
constructor; a Gibbs state is the h-transform of its transfer matrix, built
from one certified eigen-solve for the Perron root and right eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, PreconditionError
from .runtime import check_table_budget, freeze

_PROB_ATOL = 1e-9


def _as_prob_vector(p):
    p = np.array(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise PreconditionError("probability vector must be 1-d and non-empty")
    if np.any(p < 0) or np.any(~np.isfinite(p)):
        raise PreconditionError("probabilities must be finite and non-negative")
    if abs(p.sum() - 1.0) > _PROB_ATOL:
        raise PreconditionError(f"probabilities sum to {p.sum()}, not 1")
    return p


def _log_moment(z):
    """Row-wise log of sum(exp(z)) and the weights exp(z) / sum(exp(z)).

    Both come from one exponential shifted by the row maximum, so neither
    overflows; the weights are the softmax of each row.
    """
    top = z.max(axis=-1, keepdims=True)
    e = np.exp(z - top)
    total = e.sum(axis=-1, keepdims=True)
    return (top + np.log(total))[..., 0], e / total


def _xlogx(v):
    out = np.zeros(v.shape)
    mask = v > 0
    out[mask] = v[mask] * np.log(v[mask])
    return out


class MarkovMeasure:
    """Stationary k-step Markov measure.

    stationary is the distribution of length-k blocks (flat, m**k entries);
    kernel[s, a] is the probability of emitting a from state s.  Rows of
    zero-mass states are ignored.  Construction validates normalization,
    shift consistency of the block distribution, and stationarity under the
    kernel; bad input is rejected, never repaired.
    """

    def __init__(self, order, stationary, kernel):
        order, kernel = _checked_shape(order, kernel)
        m = kernel.shape[1]
        stationary = _as_prob_vector(stationary)
        if stationary.size != m**order:
            raise PreconditionError("stationary distribution has wrong size")
        pos = stationary > 0
        rows = kernel.sum(axis=1)
        if np.any(np.abs(rows[pos] - 1.0) > _PROB_ATOL):
            raise PreconditionError("kernel rows on positive states must sum to 1")
        self.order = order
        self._m = int(m)
        self.stationary = freeze(stationary)
        self.kernel = freeze(kernel)
        self._check_shift_consistency()
        self._check_stationarity()

    @property
    def m(self):
        return self._m

    def _check_shift_consistency(self):
        m, k = self.m, self.order
        if k == 1:
            return
        left = self.stationary.reshape(m, m ** (k - 1)).sum(axis=0)
        right = self.stationary.reshape(m ** (k - 1), m).sum(axis=1)
        if np.max(np.abs(left - right)) > _PROB_ATOL:
            raise PreconditionError(
                "block distribution is not shift consistent "
                "(leading and trailing marginals differ)"
            )

    def _check_stationarity(self):
        # one step of the induced chain on states must leave the law in place
        targets = _successors(self.m, self.order)
        pushed = np.zeros_like(self.stationary)
        np.add.at(pushed, targets.ravel(), (self.stationary[:, None] * self.kernel).ravel())
        resid = np.max(np.abs(pushed - self.stationary))
        if resid > _PROB_ATOL:
            raise PreconditionError(
                f"stationary distribution violates invariance (residual {resid:.3e})"
            )

    @classmethod
    def from_kernel(cls, kernel, order):
        """Build the stationary measure of a kernel.

        The positive-entry transition graph on all m**order states must be
        strongly connected and every row must sum to 1; both are checked
        before solving, and the stationary distribution is then unique.  A
        linear solve gives it and the constructor certifies its invariance.
        """
        order, kernel = _checked_shape(order, kernel)
        op = _state_operator(kernel, order)
        if not _strongly_connected(op > 0):
            raise PreconditionError(
                "kernel graph is not strongly connected; "
                "stationary distribution would not be unique"
            )
        if np.any(np.abs(kernel.sum(axis=1) - 1.0) > _PROB_ATOL):
            raise PreconditionError("kernel rows must sum to 1")
        # dist (I - op) = 0 with sum(dist) = 1 as its last equation is
        # nonsingular for strongly connected op; abs() undoes rounding signs
        eqs = np.eye(op.shape[0]) - op.T
        eqs[-1] = 1.0
        dist = np.abs(np.linalg.solve(eqs, np.eye(op.shape[0])[-1]))
        return cls(order=order, stationary=dist / dist.sum(), kernel=kernel)

    def marginal(self, n):
        n = int(n)
        if n < 0:
            raise PreconditionError("marginal level must be >= 0")
        m, k = self.m, self.order
        check_table_budget(m, max(n, k), "marginal table")
        if n <= k:
            return self.stationary.reshape(m**n, m ** (k - n)).sum(axis=1)
        table = np.array(self.stationary)
        for j in range(k, n):
            states = np.arange(m**j) % m**k
            table = (table[:, None] * self.kernel[states, :]).ravel()
        return table

    def entropy(self):
        rows = -_xlogx(self.kernel).sum(axis=1)
        return float(np.dot(self.stationary, rows))

    def sample_batch(self, count, length, rng):
        """count words of the given length; a word no longer than the order
        is the head of a stationary block.

        Words come as the (count, length) view of one contiguous
        (length, count) array of symbol columns, uint8 when m <= 256: the
        walk writes one column per step, and `_project_batch` reads them
        from the last to the first.
        """
        count, length = int(count), int(length)
        if length < 0:
            raise PreconditionError("sample length must be >= 0")
        m, k = self.m, self.order
        cdf0 = np.cumsum(self.stationary)
        states = np.searchsorted(cdf0, rng.random(count), side="right")
        states = np.minimum(states, self.stationary.size - 1)
        u = rng.random((count, max(length - k, 0)))
        cols = np.empty((k + u.shape[1], count), dtype=_symbol_dtype(m))
        tmp = states.copy()
        for j in range(k - 1, -1, -1):
            cols[j] = tmp % m
            tmp //= m
        # symbol = #{j < m - 1 : cdf[state, j] < u}, so u above a row's
        # rounded total still takes the last symbol
        kernel_cdf = np.ascontiguousarray(np.cumsum(self.kernel, axis=1)[:, :-1].T)
        for t in range(u.shape[1]):
            sym = cols[k + t]
            sym[...] = 0
            for cdf in kernel_cdf:
                sym += cdf.take(states) < u[:, t]
            states %= m ** (k - 1)
            states *= m
            states += sym
        return cols[:length].T


class BernoulliMeasure(MarkovMeasure):
    """Product measure with one weight per symbol: the order-1 Markov
    measure whose kernel rows all equal p.  Zero weights allowed."""

    def __init__(self, p):
        p = _as_prob_vector(p)
        super().__init__(order=1, stationary=p, kernel=np.tile(p, (p.size, 1)))
        self.p = self.stationary

    def sample_batch(self, count, length, rng):
        """count words of the given length, in the symbol-column layout of
        `MarkovMeasure.sample_batch`, drawn from one (count, length) block
        of uniforms."""
        cdf = np.cumsum(self.p)
        u = rng.random((int(count), int(length)))
        # symbol = #{j < m - 1 : cdf[j] <= u}, the inverse-CDF draw with
        # u >= cdf[-1] (rounding) sent to the last symbol
        idx = np.zeros(u.shape, dtype=_symbol_dtype(self.m))
        for c in cdf[:-1]:
            idx += u >= c
        return np.ascontiguousarray(idx.T).T


def _symbol_dtype(m):
    """The narrowest dtype of sampled words over an alphabet of size m."""
    return np.uint8 if m <= 256 else np.int64


def _checked_shape(order, kernel):
    """order >= 1 and a finite non-negative kernel of shape (m**order, m)."""
    order = int(order)
    if order < 1:
        raise PreconditionError("markov order must be >= 1")
    kernel = np.array(kernel, dtype=float)
    shape = kernel.shape
    if len(shape) == 2 and shape[1] >= 1:  # refused before m**order is formed
        check_table_budget(shape[1], order, "markov kernel")
    if len(shape) != 2 or shape[1] < 1 or shape[0] != shape[1] ** order:
        raise PreconditionError(f"kernel of shape {shape} is not (m**{order}, m)")
    if np.any(kernel < 0) or np.any(~np.isfinite(kernel)):
        raise PreconditionError("kernel entries must be finite and non-negative")
    return order, kernel


def _strongly_connected(adj):
    """Whether state 0 reaches every state along adj and along adj.T.

    Each sweep reads a row once, when its state is first reached.  The
    empty graph counts as not strongly connected.
    """
    n = adj.shape[0]
    if n == 0:
        return False
    for edges in (adj, adj.T):
        seen = np.arange(n) == 0
        frontier = np.flatnonzero(seen)
        while frontier.size:
            fresh = edges[frontier].any(axis=0) & ~seen
            seen |= fresh
            frontier = np.flatnonzero(fresh)
        if not seen.all():
            return False
    return True


def _successors(m, k):
    """succ[s, a] = (s mod m**(k-1)) * m + a, the state after s emits a."""
    return (np.arange(m**k) % m ** (k - 1))[:, None] * m + np.arange(m)[None, :]


def _state_operator(kernel, order):
    """Dense transition operator of the induced chain on all m**order states."""
    n, m = kernel.shape
    op = np.zeros((n, n))
    op[np.arange(n)[:, None], _successors(m, order)] = kernel
    return op


def markov_approximation(measure, order):
    """Best k-step approximation: exact level-(k+1) marginals, ratio kernel.

    The result has initial distribution equal to the level-k marginal of the
    input and kernel equal to the ratio of its cylinder masses (zero where
    the conditioning block has mass zero).  Level-n marginals of the input
    are absolutely continuous with respect to the result for every n, and
    relative entropy distance decays to zero as the order grows.
    """
    order = int(order)
    if order < 1:
        raise PreconditionError("approximation order must be >= 1")
    m = measure.m
    table = measure.marginal(order + 1).reshape(m**order, m)
    stationary = table.sum(axis=1)
    kernel = np.zeros_like(table)
    pos = stationary > 0
    kernel[pos] = table[pos] / stationary[pos, None]
    return MarkovMeasure(order=order, stationary=stationary, kernel=kernel)


def relative_entropy(mu, nu):
    """h(mu || nu) in nats for nu a k-step Markov model.

    Computed as -h(mu) - sum over (k+1)-blocks of mu-mass times the log
    nu-kernel step.  Returns +inf when some mu-positive block has a zero
    nu step (absolute continuity of marginals fails).  For shift-invariant
    mu the level-(k+1) check settles every level.
    """
    if not isinstance(nu, MarkovMeasure):
        raise PreconditionError(f"not a sequence-space measure: {type(nu)!r}")
    if mu.m != nu.m:
        raise PreconditionError("measures live on different alphabets")
    m, k = nu.m, nu.order
    blocks = mu.marginal(k + 1)
    steps = nu.kernel.ravel()  # aligned: code(w) = code(w[:k]) * m + w[k]
    pos = blocks > 0
    state_codes = np.arange(m ** (k + 1)) // m
    if np.any(pos & ((steps <= 0) | (nu.stationary[state_codes] <= 0))):
        return math.inf
    cross = float(np.dot(blocks[pos], np.log(steps[pos])))
    value = -mu.entropy() - cross
    return max(value, 0.0)


@dataclass(frozen=True)
class LocallyConstantPotential:
    """Potential depending on the first `depth` symbols only.

    table is flat with m**depth entries in word-code order; -inf entries are
    allowed and mark forbidden words.
    """

    depth: int
    m: int
    table: np.ndarray

    def __post_init__(self):
        depth, m = int(self.depth), int(self.m)
        if depth < 1 or m < 1:
            raise PreconditionError("potential depth and alphabet must be >= 1")
        check_table_budget(m, depth, "potential table")
        table = np.array(self.table, dtype=float).ravel()
        if table.size != m**depth:
            raise PreconditionError(
                f"table has {table.size} entries, expected {m}**{depth}"
            )
        if np.any(np.isnan(table)) or np.any(table == math.inf):
            raise PreconditionError("potential entries must be finite or -inf")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "table", freeze(table))

    def finite_range(self):
        finite = self.table[np.isfinite(self.table)]
        if finite.size == 0:
            raise PreconditionError("potential is identically -inf")
        return float(finite.min()), float(finite.max())


class GibbsMeasure(MarkovMeasure):
    """Gibbs state of a locally constant potential: its Markov measure, with
    the potential, the pressure and the Gibbs constant.

    constant is an explicit C valid in the two-sided Gibbs mass comparison
    for every admissible cylinder, derived from the transfer-operator
    eigendata (not fitted to data).
    """

    def __init__(self, potential, pressure, markov, constant):
        super().__init__(markov.order, markov.stationary, markov.kernel)
        self.potential = potential
        self.pressure = pressure
        self.constant = constant


def _straddle_bounds(pot, length):
    """Min/max over every tail of the first `length` windows of prefix + tail.

    Indexed by the code of the length-`length` prefix; the tail runs over
    all depth - 1 symbol strings.  Tails that pass through a forbidden
    (-inf) window hold no point of the cylinder and are skipped.
    """
    m, d = pot.m, pot.depth
    n = length + d - 1
    # window j of the word with code c is its digits j .. j + d - 1
    codes = np.arange(m**n)
    s = np.zeros(m**n)
    for j in range(length):
        s += pot.table[codes // m ** (n - d - j) % m**d]
    s = s.reshape(m**length, m ** (d - 1))
    ok = s > -math.inf
    return np.where(ok, s, math.inf).min(axis=1), np.where(ok, s, -math.inf).max(axis=1)


def gibbs_ratio_bounds(gibbs, max_length):
    """Extremes of the Gibbs mass ratio over cylinders of length 1..max_length.

    For each admissible length-n cylinder [w] the ratio is
    mu[w] * exp(nP - S_n phi), with the Birkhoff sum S_n phi at its min over
    the points of [w] (upper ratio) or its max (lower ratio).  The first
    n - depth + 1 windows are fixed by w; the last depth - 1 straddle the
    free tail, so their extremes depend only on w's final state.  Returns
    arrays (lo, hi, cylinders) indexed by n - 1; the Gibbs property is
    1/C <= lo and hi <= C.
    """
    pot = gibbs.potential
    m, d = pot.m, pot.depth
    check_table_budget(m, max_length, "Gibbs ratio table")
    states = m ** (d - 1)
    tail_lo, tail_hi = _straddle_bounds(pot, d - 1)
    lo = np.empty(max_length)
    hi = np.empty(max_length)
    cylinders = np.empty(max_length, dtype=np.int64)
    # head[w] = sum of the windows fixed by w, grown level by level
    head = np.zeros(1)
    state = np.zeros(1, dtype=np.int64)
    for n in range(1, max_length + 1):
        window = (state[:, None] * m + np.arange(m)[None, :]).ravel()
        head = np.repeat(head, m)
        if n >= d:
            head = head + pot.table[window]
        state = window % states
        if n < d - 1:
            # shorter than the memory: every window straddles the tail
            s_lo, s_hi = _straddle_bounds(pot, n)
        else:
            s_lo, s_hi = head + tail_lo[state], head + tail_hi[state]
        masses = gibbs.marginal(n)
        keep = masses > 0
        hi[n - 1] = np.max(masses[keep] * np.exp(n * gibbs.pressure - s_lo[keep]))
        lo[n - 1] = np.min(masses[keep] * np.exp(n * gibbs.pressure - s_hi[keep]))
        cylinders[n - 1] = keep.sum()
    return lo, hi, cylinders


def _perron_root(matrix):
    """Perron root and right eigenvector (summing to 1) of an irreducible
    non-negative matrix from one dense eig: the root is the eigenvalue of
    largest real part, even for a periodic matrix.  Both must be positive
    and the residual at most 1e-10 * root.
    """
    vals, vecs = np.linalg.eig(matrix)
    idx = int(np.argmax(vals.real))
    rho = float(vals[idx].real)
    h = vecs[:, idx].real
    h = h / h.sum()
    if not (rho > 0 and np.all(h > 0)):
        raise EstimationError("Perron data is not strictly positive")
    if np.max(np.abs(matrix @ h - rho * h)) > 1e-10 * rho:
        raise EstimationError("Perron eigenvector fails its residual certificate")
    return rho, h


def gibbs_from_potential(potential):
    """Equilibrium state and pressure of a locally constant potential.

    Depth-1 potentials give an exact Bernoulli state (constant 1).  Deeper
    potentials give a (depth-1)-step Markov state built from the transfer
    matrix on overlap states; the induced positive-transition structure must
    be strongly connected, otherwise the state is not unique at this scope
    and we reject.
    """
    pot = potential
    m, d = pot.m, pot.depth
    if d == 1:
        pressure = float(_log_moment(pot.table)[0])
        p = np.exp(pot.table - pressure)
        markov = BernoulliMeasure(p / p.sum())
        return GibbsMeasure(pot, pressure, markov, 1.0)
    n_states = m ** (d - 1)
    # the dense n_states**2 matrix, and the straddle table of the same size
    check_table_budget(m, 2 * (d - 1), "transfer matrix")
    if np.max(pot.table) > 700.0:
        raise PreconditionError("potential values overflow the transfer matrix")
    with np.errstate(under="ignore"):
        weights = np.exp(pot.table).reshape(n_states, m)
    W = _state_operator(weights, d - 1)
    if not _strongly_connected(W > 0):
        raise PreconditionError(
            "induced transition structure is not irreducible; "
            "equilibrium state is not unique at this scope"
        )
    rho, h = _perron_root(W)
    pressure = math.log(rho)
    # the h-transform W h / (rho h) is stochastic; its stationary law is
    # pi = v * h for the left eigenvector v with <v, h> = 1
    kernel = weights * h[_successors(m, d - 1)] / (rho * h[:, None])
    kernel = kernel / kernel.sum(axis=1, keepdims=True)
    markov = MarkovMeasure.from_kernel(kernel, d - 1)
    v = markov.stationary / h
    constant = _gibbs_constant(pot, pressure, markov, v, h, rho)
    return GibbsMeasure(pot, pressure, markov, constant)


def _gibbs_constant(pot, pressure, markov, v, h, rho):
    """Explicit two-sided constant from the eigendata.

    For n >= depth-1 the mass ratio against exp(-P n + Birkhoff sum) equals
    v(first state) * h(last state) * rho**(depth-1) * exp(-tail), where the
    tail collects the depth-1 potential terms that look past the cylinder;
    shorter cylinders are bounded directly from their marginal tables.
    """
    k = pot.depth - 1
    lo_phi, hi_phi = pot.finite_range()
    hi = float(np.max(v) * np.max(h) * rho**k * math.exp(-k * lo_phi))
    lo = float(np.min(v) * np.min(h) * rho**k * math.exp(-k * hi_phi))
    for n in range(1, k):
        table = markov.marginal(n)
        pos = table[table > 0]
        hi = max(hi, float(pos.max()) * math.exp(n * pressure - n * lo_phi))
        lo = min(lo, float(pos.min()) * math.exp(n * pressure - n * hi_phi))
    return max(hi, 1.0 / lo, 1.0)
