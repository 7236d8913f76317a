"""Per-row random streams for the batched Monte-Carlo engines.

A batch steps many independent samples as rows of one array, but every
sample keeps the stream it would have on its own: row r draws from
``numpy.random.default_rng(seeds[r])`` (PCG64) and nothing else. Draws are
taken ahead in blocks, one block per row, and read through a per-row
cursor; a row that reaches the end of its block draws the next block from
its own generator. A block of n draws equals n scalar draws of the same
kind (``rng.random(n)`` is n calls of ``rng.random()``, and a uint32 block
is n successive full-range 32-bit outputs), so a row sees exactly the
sequence of a serial loop over its seed, however the other rows advance.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np


class RowStreams:
    """One seeded generator per row, read ahead ``block`` draws at a time.

    ``draw(rng, n)`` returns the next n draws of ``rng`` as a 1-D array;
    the buffer holds rows x block of them.
    """

    def __init__(self, seeds: Sequence[int],
                 draw: Callable[[np.random.Generator, int], np.ndarray], block: int):
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._rngs = [np.random.default_rng(s) for s in seeds]
        self._draw = draw
        self._buffer = np.stack([draw(rng, block) for rng in self._rngs])
        self._cursor = np.zeros(len(self._rngs), dtype=np.intp)

    def next(self, rows: np.ndarray) -> np.ndarray:
        """The next draw of each listed row; ``rows`` holds distinct indices."""
        cursor = self._cursor[rows]
        spent = cursor == self._buffer.shape[1]
        if spent.any():
            for r in rows[spent]:
                self._buffer[r] = self._draw(self._rngs[r], self._buffer.shape[1])
            cursor[spent] = 0
        self._cursor[rows] = cursor + 1
        return self._buffer[rows, cursor]
