"""Words over a finite alphabet and the contraction-weighted symbolic metric.

A word is a plain tuple of small ints.  The metric is determined by one
contraction ratio per symbol: the weight of a word is the product of the
ratios of its letters, and the distance between two sequences is the weight
of their longest common prefix.  Only the weights are computed here: the
certified truncation depths and separation checks are built on them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlphabetMismatchError, PreconditionError

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

    def _prefix_weights(self, sym, lengths):
        """weight(sym[:n]) for each n in lengths, of a validated int array.

        The bits of weight: prefixes up to _LOG_SPACE_LEN symbols are
        products in word order, so one cumprod serves them all, and longer
        ones are summed in log space.
        """
        head = np.cumprod(np.concatenate(([1.0], np.array(self.ratios)[sym[:_LOG_SPACE_LEN]])))
        return np.array([
            head[n] if n <= _LOG_SPACE_LEN
            else math.exp(float(self._log_ratios[sym[:n]].sum()))
            for n in lengths
        ])
