"""Words over a finite alphabet and the contraction-weighted symbolic metric.

A word is a plain tuple of small ints.  The metric is determined by one
contraction ratio per symbol: the weight of a word is the product of the
ratios of its letters, and the distance between two sequences is the weight
of their longest common prefix.  Only the weights are computed here: the
certified truncation depths and separation checks are built on them.

Every weight in the package is one running product, multiplied in word order
from 1.0: `AdaptedMetric.weight` takes it for one word, and
`ifs._prefix_weights` for every prefix of a batch of words at once, with the
same bits.  A product of n ratios is within about n * 2**-53, relative, of
the exact weight while it stays a normal float.
"""

from __future__ import annotations

import numpy as np

from .errors import AlphabetMismatchError, PreconditionError


def as_word(seq, alphabet_size=None):
    """Normalize to an int tuple, validating symbols if an alphabet is given.

    Symbols follow runtime._integer's rule, checked on the whole word at
    once: 3.0 counts as 3, and 1.7, nan, inf or a string are refused.
    """
    word = np.asarray(seq)
    if word.ndim != 1 or word.dtype.kind not in "biuf":
        raise PreconditionError(f"a word is a flat sequence of integer symbols, got {seq!r}")
    if word.dtype.kind == "f":
        bad = word[~(np.isfinite(word) & (word == np.trunc(word)))]
        if bad.size:
            raise PreconditionError(f"symbol must be an integer, got {bad[0]}")
    word = tuple(map(int, word.tolist()))
    if min(word, default=0) < 0:
        raise AlphabetMismatchError(f"negative symbol in word {word}")
    if alphabet_size is not None and max(word, default=0) >= alphabet_size:
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
        self.gamma = max(ratios)

    def weight(self, word):
        """Product of per-symbol ratios in word order from 1.0; 1.0 for the empty word."""
        out = 1.0
        for s in as_word(word, len(self.ratios)):
            out *= self.ratios[s]
        return out
