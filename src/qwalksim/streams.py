"""Per-row random streams for the batched Monte-Carlo engines.

A batch steps many independent samples as rows of one array, but every
sample keeps the stream it would have on its own: row r draws from
``numpy.random.default_rng(seeds[r])`` (PCG64) and nothing else. Draws are
taken ahead in blocks, one block per row, and read through a per-row
cursor; a row that reaches the end of its block draws the next block of
its own stream. A block of n draws equals n scalar draws of the same kind,
so a row sees exactly the sequence of a serial loop over its seed, however
the other rows advance. No numpy ``Generator`` or ``PCG64`` object is
built: the whole batch's generator states are uint64 arrays, stepped here
by numpy's own algorithms.

How a seed becomes a PCG64 state. ``default_rng(s)`` is
``Generator(PCG64(SeedSequence(s)))``, and PCG64 reads its whole state from
``SeedSequence(s).generate_state(4, np.uint64)``. That hash (O'Neill's
``seed_seq_fe`` with a pool of four uint32 words) costs about 15 us per
seed (numpy 2.4, 2-vCPU x86 guest). Its constants are the same for every
seed, so ``seed_words`` runs it once for a whole batch as uint32 array
arithmetic. The hash reads a seed as its little-endian 32-bit words; a
seed below 2^128 fits the pool, zero-padded, and one above it (more than
four words) mixes each further word into the pool, as numpy does.
Negative seeds raise numpy's ``ValueError``. Words w0..w3 then seed PCG64
as numpy's ``pcg64_set_seed`` does: the increment is
``inc = (w2:w3 << 1) | 1`` and the state ``(inc + w0:w1) * M + inc``
mod 2^128, M being PCG64's multiplier and a:b the 128-bit number with
high word a.

How the states step. ``RowStreams`` holds each row's 128-bit state and
increment as (rows, 2) uint64 arrays, high word first. Its n-th output
steps the state by ``s -> M*s + inc`` and returns the new state's XSL-RR
output ``rotr64(hi ^ lo, hi >> 58)``. A block of n outputs is one jump
ahead for every listed row at once: ``s_k = A_k*s + G_k*inc`` for
k = 1..n, with ``A_k = M^k`` and ``G_k = M^0 + ... + M^(k-1)`` mod 2^128,
constants computed once up to ``MAX_BLOCK``. The 64 x 64 -> 128-bit
products go through 32-bit halves, on arrays only (numpy's uint64
scalars warn on overflow; arrays wrap).

Two conversions turn a (rows, n) block of raw outputs into draws:
``uniform`` is ``Generator.random()``, ``(raw >> 11) * 2**-53``, one draw
an output; ``uint32`` is the full-range 32-bit draw, the low half and then
the high half of each output, which is what numpy's buffered 32-bit draws
give for a generator that is only ever read in pairs.

A row can also leave the batch: ``RowStreams.row_draws`` hands over its
draws from the cursor on as Python scalars, the rest of its block and then
its own one-row refills, for a caller that reads one row at a time.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterator, Sequence

import numpy as np

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




# PCG64's 128-bit LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128)
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = 2 ** 64 - 1, 2 ** 128 - 1
_LOW32, _32, _58, _63, _64, _1 = (np.uint64(v) for v in (0xFFFFFFFF, 32, 58, 63, 64, 1))
# most outputs one refill of a row draws
MAX_BLOCK = 256


def _split(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit integers as their (high, low) uint64 words."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _jump_constants(n: int) -> tuple[np.ndarray, ...]:
    """(A_hi, A_lo, G_hi, G_lo) for k = 1..n: A_k = M^k, G_k = sum of M^j for j < k."""
    a, g = [1], [0]
    for _ in range(n):
        g.append(g[-1] + a[-1] & _MASK128)
        a.append(a[-1] * _MULTIPLIER & _MASK128)
    return _split(a[1:]) + _split(g[1:])


_JUMP = _jump_constants(MAX_BLOCK)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product a*b (uint64 arrays, broadcast)."""
    a0, a1 = a & _LOW32, a >> _32
    b0, b1 = b & _LOW32, b >> _32
    mid = a0 * b0
    mid >>= _32
    mid += a1 * b0
    cross = a0 * b1
    cross += mid & _LOW32
    cross >>= _32
    mid >>= _32
    mid += cross
    mid += a1 * b1
    return mid


def _states(state: np.ndarray, inc: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of each row's next n states, (rows, n) uint64 each.

    State k is ``A_k*s + G_k*inc``. It works in place where it can: a
    refill's temporaries are its largest arrays.
    """
    a_hi, a_lo, g_hi, g_lo = (c[:n] for c in _JUMP)
    s_hi, s_lo = state[:, :1], state[:, 1:]
    i_hi, i_lo = inc[:, :1], inc[:, 1:]
    lo = s_lo * a_lo
    addend = i_lo * g_lo
    lo += addend
    carry = lo < addend
    del addend
    hi = _mulhi(s_lo, a_lo)
    hi += carry
    del carry
    hi += _mulhi(i_lo, g_lo)
    hi += s_hi * a_lo
    hi += s_lo * a_hi
    hi += i_hi * g_lo
    hi += i_lo * g_hi
    return hi, lo


def _advance(state: np.ndarray, inc: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The next n raw outputs of each row, (rows, n) uint64, and the rows' new state."""
    hi, lo = _states(state, inc, n)
    stepped = np.stack((hi[:, -1], lo[:, -1]), axis=1)
    # XSL-RR: rotate hi ^ lo right by the top six bits of hi
    rot = hi >> _58
    hi ^= lo
    del lo
    left = _64 - rot
    left &= _63
    np.left_shift(hi, left, out=left)
    hi >>= rot
    hi |= left
    return hi, stepped


def _seeded(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's PCG64 (state, increment) from its ``seed_words`` row, both (rows, 2)."""
    inc_hi = (words[:, 2] << _1) | (words[:, 3] >> _63)
    inc_lo = (words[:, 3] << _1) | _1
    lo = inc_lo + words[:, 1]
    start = np.stack((inc_hi + words[:, 0] + (lo < inc_lo), lo), axis=1)  # inc + w0:w1
    inc = np.stack((inc_hi, inc_lo), axis=1)
    return np.concatenate(_states(start, inc, 1), axis=1), inc


def uniform(raw: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each raw output: its top 53 bits, scaled to [0, 1)."""
    return (raw >> np.uint64(11)) * 2.0 ** -53


def uint32(raw: np.ndarray) -> np.ndarray:
    """Two full-range 32-bit draws of each raw output, its low half first."""
    return raw.astype("<u8", copy=False).view("<u4")


class RowStreams:
    """One PCG64 stream per row, read ahead ``block`` raw outputs at a time.

    ``convert`` (``uniform`` or ``uint32``) turns a (rows, block) array of
    raw outputs into the rows' next draws; the buffer holds one converted
    block a row. ``block`` is at most ``MAX_BLOCK``.
    """

    def __init__(self, seeds: Sequence[int],
                 convert: Callable[[np.ndarray], np.ndarray], block: int):
        if not 1 <= block <= MAX_BLOCK:
            raise ValueError(f"block must be in 1..{MAX_BLOCK}, got {block}")
        self._state, self._inc = _seeded(seed_words(seeds))
        self._convert = convert
        self._block = block
        raw, self._state = _advance(self._state, self._inc, block)
        self._buffer = convert(raw)
        self._cursor = np.zeros(len(self._state), dtype=np.intp)

    def next(self, rows: np.ndarray) -> np.ndarray:
        """The next draw of each listed row; ``rows`` holds distinct indices."""
        cursor = self._cursor[rows]
        spent = cursor == self._buffer.shape[1]
        if spent.any():
            refill = rows[spent]
            raw, self._state[refill] = _advance(self._state[refill], self._inc[refill],
                                                self._block)
            self._buffer[refill] = self._convert(raw)
            cursor[spent] = 0
        self._cursor[rows] = cursor + 1
        return self._buffer[rows, cursor]

    def row_draws(self, row: int) -> Iterator:
        """Row ``row``'s draws from its cursor on, as Python scalars.

        They are the rest of the row's block, then one block after another
        of the row's own refills, each converted to a list on its own: the
        draws ``next`` would give the row, bit for bit. A one-row refill
        costs about the same numpy calls at any length, so these take
        ``MAX_BLOCK`` outputs at a time. The row is the iterator's from
        then on; ``next`` must not read it again.
        """
        rest = self._buffer[row, self._cursor[row]:].tolist()
        refills = self._refills(self._state[row:row + 1].copy(), self._inc[row:row + 1])
        return itertools.chain(rest, itertools.chain.from_iterable(refills))

    def _refills(self, state: np.ndarray, inc: np.ndarray) -> Iterator[list]:
        """One row's blocks of draws, from its (1, 2) state and increment on."""
        while True:
            raw, state = _advance(state, inc, MAX_BLOCK)
            yield self._convert(raw)[0].tolist()
