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

How a seed becomes a PCG64 state. ``default_rng(s)`` is
``Generator(PCG64(SeedSequence(s)))``, and PCG64 reads its whole state from
``SeedSequence(s).generate_state(4, np.uint64)``. That hash (O'Neill's
``seed_seq_fe`` with a pool of four uint32 words) costs about 15 us per
seed (numpy 2.4, 2-vCPU x86 guest), more than anything else in building
a generator. Its constants are the same for every seed, so ``seed_words``
runs it once for a whole batch as uint32 array arithmetic, and each row's
PCG64 is built from its own four words through ``numpy``'s public
``ISeedSequence`` interface. The hash reads a seed as its little-endian
32-bit words; a seed below 2^128 fits the pool, zero-padded, and one above
it (more than four words) mixes each further word into the pool, as numpy
does. Negative seeds raise numpy's ``ValueError``.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence: pool size, hash and mix constants (uint32)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first n (xor, multiply) pairs of one running hash constant.

    The k-th hash of a sequence xors with the constant, advances it by
    ``mult`` and multiplies by the advanced value.
    """
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h[:-1], dtype=np.uint32), np.array(h[1:], dtype=np.uint32)


def _mix_rounds(words: int) -> tuple[np.ndarray, np.ndarray]:
    """The entropy-mixing hash constants of ``words``-word seeds, one row a round.

    Round 0 hashes the entropy into the pool. Round 1+s hashes pool word s
    into each other pool word for s < 4, taking its constants in
    destination order; lane s of those rounds is a placeholder whose
    result is discarded. Round 1+s for s >= 4 hashes entropy word s into
    all four pool words.
    """
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * words)
    lanes = [list(range(_POOL))]
    k = _POOL
    for s in range(_POOL):
        lane = [0] * _POOL
        for d in range(_POOL):
            if d != s:
                lane[d], k = k, k + 1
        lanes.append(lane)
    lanes += [list(range(k + _POOL * i, k + _POOL * (i + 1))) for i in range(words - _POOL)]
    return xor[lanes], mul[lanes]


_MIX_4 = _mix_rounds(_POOL)
_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def seed_words(seeds: Sequence[int]) -> np.ndarray:
    """Row r is ``numpy.random.SeedSequence(seeds[r]).generate_state(4, np.uint64)``.

    Seeds are non-negative integers (Python or numpy) of any size.
    """
    seeds = [operator.index(s) for s in seeds]
    if min(seeds, default=0) < 0:
        raise ValueError("expected non-negative integer")
    words = max(_POOL, -(-max(seeds, default=0).bit_length() // 32))
    entropy = np.frombuffer(b"".join(s.to_bytes(4 * words, "little") for s in seeds),
                            dtype="<u4").reshape(len(seeds), words)
    xor, mul = _MIX_4 if words == _POOL else _mix_rounds(words)
    pool = _hashmix(entropy[:, :_POOL], xor[0], mul[0])
    for s in range(_POOL):
        mixed = _mix(pool, _hashmix(pool[:, s:s + 1], xor[1 + s], mul[1 + s]))
        mixed[:, s] = pool[:, s]
        pool = mixed
    for s in range(_POOL, words):
        # a seed mixes in only the words it has: those up to its highest nonzero one
        rows = entropy[:, s:].any(axis=1)
        pool[rows] = _mix(pool[rows], _hashmix(entropy[rows, s:s + 1], xor[1 + s], mul[1 + s]))
    state = _hashmix(np.concatenate((pool, pool), axis=1), _STATE_XOR, _STATE_MUL)
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """A PCG64 seed whose state words ``seed_words`` computed ahead."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self._words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {len(self._words)} uint64 words, "
                             f"asked for {n_words} of {np.dtype(dtype)}")
        return self._words


class RowStreams:
    """One seeded generator per row, read ahead ``block`` draws at a time.

    ``draw(rng, n)`` returns the next n draws of ``rng`` as a 1-D array;
    the buffer holds rows x block of them.
    """

    def __init__(self, seeds: Sequence[int],
                 draw: Callable[[np.random.Generator, int], np.ndarray], block: int):
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._rngs = [np.random.Generator(np.random.PCG64(_SeedWords(w)))
                      for w in seed_words(seeds)]
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
