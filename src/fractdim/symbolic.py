"""Words over a finite alphabet and the contraction-weighted symbolic metric.

A word is a plain tuple of small ints.  The metric is determined by one
contraction ratio per symbol: the weight of a word is the product of the
ratios of its letters, and the distance between two sequences is the weight
of their longest common prefix.  Distances between finite truncations are
only decided when the truncations disagree; otherwise we can return just an
upper bound, and the result carries a flag saying which case occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatchError, PreconditionError, WordTooShortError

# Beyond this length, weights are accumulated in log space to dodge underflow.
_LOG_SPACE_LEN = 64


def as_word(seq, alphabet_size=None):
    """Normalize to an int tuple, validating symbols if an alphabet is given."""
    word = tuple(int(s) for s in seq)
    if any(s < 0 for s in word):
        raise AlphabetMismatchError(f"negative symbol in word {word}")
    if alphabet_size is not None and any(s >= alphabet_size for s in word):
        raise AlphabetMismatchError(
            f"word {word} has symbols outside alphabet of size {alphabet_size}"
        )
    return word


def common_prefix(a, b):
    """Longest common prefix of two words, as a tuple."""
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class DistanceBound:
    """Result of a symbolic distance query on finite truncations.

    value is the exact distance when decided; otherwise it is only an upper
    bound (one truncation extends the other, so deeper symbols could still
    disagree anywhere below the common length).
    """

    value: float
    decided: bool
    split_depth: int  # length of the common prefix


@dataclass(frozen=True)
class CylinderDepth:
    """Depth n such that weight(w[:n+1]) < r <= weight(w[:n]).

    At that depth the metric ball B(w, r) is squeezed between the two
    cylinders: [w[:n+1]] inside the ball, the ball inside [w[:n]].
    depth_cap is the certified a-priori bound log r / log gamma, gamma the
    largest ratio, that the returned depth never exceeds.
    """

    depth: int
    weight_at_depth: float
    weight_below: float
    depth_cap: float


class AdaptedMetric:
    """Symbolic metric weights for one contraction ratio per symbol."""

    def __init__(self, ratios):
        ratios = tuple(float(r) for r in ratios)
        if len(ratios) < 2:
            raise PreconditionError("need at least two symbols for a metric")
        if any(not (0.0 < r < 1.0) for r in ratios):
            raise PreconditionError(f"ratios must lie in (0,1), got {ratios}")
        self.ratios = ratios
        self._log_ratios = np.log(np.asarray(ratios))
        self.gamma = max(ratios)
        self.gamma_min = min(ratios)

    @property
    def alphabet_size(self):
        return len(self.ratios)

    def _validate(self, word):
        for s in word:
            if not 0 <= s < len(self.ratios):
                raise AlphabetMismatchError(
                    f"symbol {s} outside alphabet of size {len(self.ratios)}"
                )

    def log_weight(self, word):
        """log of the word weight; 0.0 for the empty word."""
        self._validate(word)
        if len(word) == 0:
            return 0.0
        return float(self._log_ratios[np.fromiter(word, dtype=np.int64)].sum())

    def weight(self, word):
        """Product of per-symbol ratios; 1.0 for the empty word."""
        if len(word) > _LOG_SPACE_LEN:
            return math.exp(self.log_weight(word))
        self._validate(word)
        out = 1.0
        for s in word:
            out *= self.ratios[s]
        return out

    def distance(self, a, b):
        """Distance between the sequences truncated as a and b.

        Decided iff a and b disagree at some index within the shorter length.
        When one is a prefix of the other the true distance is anywhere in
        [0, weight(prefix)]; we return that upper bound with decided=False.
        """
        self._validate(a)
        self._validate(b)
        prefix = common_prefix(a, b)
        n = len(prefix)
        decided = n < min(len(a), len(b))
        return DistanceBound(
            value=self.weight(prefix), decided=decided, split_depth=n
        )

    def cylinder_depth(self, word, r):
        """Locate the metric ball B(w, r) between nested cylinders.

        Requires r < min ratio (so depth >= 1 exists) and a truncation long
        enough to see the crossing; otherwise raises WordTooShortError with
        the certified sufficient length.
        """
        r = float(r)
        if not r > 0.0:
            raise PreconditionError(f"radius must be positive, got {r}")
        if r >= self.gamma_min:
            raise PreconditionError(
                f"radius {r} >= min ratio {self.gamma_min}; depth may be 0"
            )
        self._validate(word)
        cap = math.log(r) / math.log(self.gamma)
        w = 1.0
        prev = 1.0
        for j, s in enumerate(word, start=1):
            prev = w
            w *= self.ratios[s]
            if w < r:
                # weight(word[:j]) < r <= weight(word[:j-1]) so depth = j-1,
                # except j == 1 cannot happen because r < min ratio.
                return CylinderDepth(
                    depth=j - 1,
                    weight_at_depth=prev,
                    weight_below=w,
                    depth_cap=cap,
                )
        required = math.floor(cap) + 1
        raise WordTooShortError(
            f"word of length {len(word)} too short to bracket radius {r}; "
            f"length {required} always suffices",
            required_length=required,
        )
