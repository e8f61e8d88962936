"""Deterministic random number helpers.

The Cowichan ``randmat`` kernel in the original benchmark suite uses a small
linear congruential generator so that every language produces the same
matrix.  We mirror that here: :func:`lcg_stream` is the portable LCG used by
the workloads, and :func:`make_rng` wraps numpy's Generator for everything
that only needs reproducible randomness.
"""

from __future__ import annotations

import random as _random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    # at run time numpy is imported by the functions that use it: every
    # process-backend worker imports this package and must not pay for it
    import numpy as np

#: LCG parameters (same family as the classic Cowichan reference code).
LCG_A = 1103515245
LCG_C = 12345
LCG_M = 2**31


def lcg_next(state: int) -> int:
    """Advance the LCG by one step."""
    return (LCG_A * state + LCG_C) % LCG_M


def lcg_stream(seed: int, count: int, limit: int = 100) -> np.ndarray:
    """Produce ``count`` pseudo-random integers in ``[0, limit)``.

    Vectorised enough for benchmark-sized matrices while staying bit-exact
    with the scalar recurrence.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if limit <= 0:
        raise ValueError("limit must be positive")
    import numpy as np

    out = np.empty(count, dtype=np.int64)
    state = seed % LCG_M
    for i in range(count):
        state = lcg_next(state)
        out[i] = state % limit
    return out


def lcg_matrix(seed: int, nrows: int, ncols: int, limit: int = 100) -> np.ndarray:
    """Row-seeded random matrix: row ``i`` is generated from ``seed + i``.

    Seeding per row is what makes the kernel embarrassingly parallel (each
    worker can generate its rows independently), exactly as in the Cowichan
    reference implementations used by the paper.
    """
    if nrows < 0 or ncols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    import numpy as np

    matrix = np.empty((nrows, ncols), dtype=np.int64)
    for row in range(nrows):
        matrix[row, :] = lcg_stream(seed + row, ncols, limit)
    return matrix


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """Seeded numpy Generator for auxiliary randomness (shuffles, noise)."""
    import numpy as np

    return np.random.default_rng(seed)


def py_random(seed: int = 0) -> _random.Random:
    """Seeded stdlib ``random.Random`` for randomized explorations.

    Code that makes random *decisions* (semantic walks, schedule choices)
    takes one of these explicitly rather than touching the module-global
    ``random`` state, so every walk is reproducible from its seed and
    callers can share one generator across composed explorations.
    """
    return _random.Random(seed)
