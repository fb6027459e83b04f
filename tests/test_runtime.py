"""Chunk decomposition of runtime.run_chunks."""

import numpy as np
import pytest

from fractdim.runtime import run_chunks


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "n, expected",
    [
        (0, []),
        (1, [(0, 0, 1)]),
        (3, [(0, 0, 3)]),
        (4, [(0, 0, 4)]),
        (5, [(0, 0, 4), (1, 4, 5)]),
        (12, [(0, 0, 4), (1, 4, 8), (2, 8, 12)]),
        (np.int64(5), [(0, 0, 4), (1, 4, 5)]),
    ],
    ids=["0", "1", "3", "4", "5", "12", "int64-5"],
)
def test_chunk_edges(n, expected, workers):
    out = run_chunks(lambda idx, lo, hi: (idx, lo, hi), n, workers=workers, chunk=4)
    assert out == expected
    # plain ints, also for a numpy count: chunk bounds slice and key streams
    assert all(type(v) is int for triple in out for v in triple)
