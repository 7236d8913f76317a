"""Classical random walks: exact chain propagation, sampling, hitting times.

The transition rule is degree-uniform: probability mass at a vertex splits
equally over its neighbors, which on the line interior is the fair +-1
coin-toss walk. Exact propagation is the oracle for every sampled result
and for the quantum classical-limit checks. ``evolve_classical_exact`` is
the state at step ``steps`` of the generator whose later states
``iter_classical_distributions`` yields.

The sampled engines are batched. Up to ``_CHUNK_ROWS`` walks move
together as one vector of current vertices, walk i on its own generator
``default_rng(seed + i)``, so each walk is the one a serial loop of
``nbrs[rng.integers(len(nbrs))]`` calls gives, bit for bit. Each walk's
stream is drawn ahead ``_DRAW_BLOCK`` full-range uint32 values at a time
(1 KiB a walk, 256 KiB a chunk) and read through a per-row cursor; a walk
that runs out, as a long hitting-time walk does, draws its next block.
Scalar ``integers(k)`` draws exactly like this: degree k = 1 consumes
nothing; otherwise it takes one uint32 x and, by Lemire's rule, returns
(x*k) >> 32 unless the low 32 bits of x*k fall below (2^32 - k) mod k, in
which case it rejects x and takes the next draw. Mixed degrees (glued
trees, a line's ends) therefore consume the stream unevenly, which the
per-row cursor follows. ``sample_walk`` is the same engine on one row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graphs import Graph, check_line_headroom
from .streams import RowStreams

# Walks stepped together. Each holds a generator (about 2 KiB of Python
# objects) and a block of uint32 draws; 256 keeps a chunk near 1 MiB.
_CHUNK_ROWS = 256
# uint32 draws each walk's stream reads ahead (1 KiB a walk)
_DRAW_BLOCK = 256
_UINT32_MAX = 2 ** 32 - 1


@dataclass
class ClassicalDistribution:
    """Position probabilities after a fixed number of steps."""

    probabilities: np.ndarray
    step_index: int
    graph: Graph


def transition_matrix(g: Graph) -> np.ndarray:
    """Row-stochastic matrix T[v, u] = 1/degree(v) for each edge (v, u)."""
    if np.any(g.degrees == 0):
        raise ValueError("graph has an isolated vertex; walk undefined there")
    return g.adjacency_matrix() / g.degrees[:, None]


def _distributions(g: Graph, start: int, steps: int | None = None):
    """Yield the exact distribution at step 0, 1, 2, ...; never write one.

    A run of known length ``steps`` is checked against the line rule first.
    """
    if not 0 <= start < g.num_vertices:
        raise ValueError(f"start vertex {start} out of range")
    if steps is not None:
        check_line_headroom(g.kind, g.num_vertices, [start], steps)
    t = transition_matrix(g)
    p = np.zeros(g.num_vertices)
    p[start] = 1.0
    while True:
        yield p
        p = p @ t


def evolve_classical_exact(g: Graph, start: int, steps: int) -> ClassicalDistribution:
    """Exact distribution after ``steps`` moves of the degree-uniform chain."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    p = next(itertools.islice(_distributions(g, start, steps), steps, None))
    return ClassicalDistribution(p, steps, g)


def iter_classical_distributions(g: Graph, start: int):
    """Yield the exact distribution after step 1, 2, ... indefinitely."""
    for p in itertools.islice(_distributions(g, start), 1, None):
        yield p.copy()


def _uint32_block(rng: np.random.Generator, n: int) -> np.ndarray:
    """The next n (even) full-range uint32 draws of ``rng``.

    PCG64 serves 32-bit draws from its 64-bit outputs, low half first; a
    fresh generator read only in pairs holds no spare half, so n/2 raw
    outputs are exactly what n ``integers(2**32)`` draws would consume.
    """
    return rng.bit_generator.random_raw(n // 2).astype("<u8", copy=False).view("<u4")


def _bounded_draws(streams: RowStreams, rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``integers(k[i])`` for each listed row, from its stream of uint32 draws.

    Lemire's rule as numpy's scalar ``integers`` applies it: k = 1 draws
    nothing; a draw x whose product x*k has its low 32 bits below
    (2^32 - k) mod k is rejected and that row takes its next draw.
    ``k`` is uint64 and at most 2^32 - 1.
    """
    choice = np.zeros(len(rows), dtype=np.int64)
    pending = (k > 1).nonzero()[0]
    while pending.size:
        bound = k[pending]
        m = streams.next(rows[pending]) * bound
        choice[pending] = m >> 32
        pending = pending[(m & _UINT32_MAX) < (2 ** 32 - bound) % bound]
    return choice


class _Walkers:
    """Independent seeded walkers on one graph, one row each.

    Row r moves as ``nbrs[default_rng(seeds[r]).integers(len(nbrs))]``
    would, from the row's own stream of uint32 draws.
    """

    def __init__(self, g: Graph, start: int, seeds, moves: int):
        self._degree = g.degrees.astype(np.uint64)
        self._offsets = g.offsets
        self._heads = g.heads
        block = max(1, min(moves, _DRAW_BLOCK))
        self._streams = RowStreams(seeds, _uint32_block, block + block % 2)
        self.at = np.full(len(seeds), start, dtype=np.int64)

    def move(self, rows: np.ndarray) -> None:
        """Move each listed row to a uniformly chosen neighbor."""
        here = self.at[rows]
        choice = _bounded_draws(self._streams, rows, self._degree[here])
        self.at[rows] = self._heads[self._offsets[here] + choice]


def _check_walk_start(g: Graph, start: int, steps: int) -> None:
    if not 0 <= start < g.num_vertices:
        raise ValueError(f"start vertex {start} out of range")
    if steps > 0 and g.degree(start) == 0:
        raise ValueError(f"start vertex {start} is isolated; the walk is undefined there")


def sample_walk(g: Graph, start: int, steps: int, seed: int) -> np.ndarray:
    """One seeded walk path of length steps+1, uniform neighbor choice each move."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_walk_start(g, start, steps)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = start
    walkers = _Walkers(g, start, [seed], steps)
    row = np.zeros(1, dtype=np.intp)
    for k in range(1, steps + 1):
        walkers.move(row)
        path[k] = walkers.at[0]
    return path


def sample_endpoint_histogram(g: Graph, start: int, steps: int,
                              num_samples: int, seed: int) -> np.ndarray:
    """Empirical endpoint distribution over independent walks.

    Walk i uses seed ``seed + i`` so any single walk can be reproduced.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_walk_start(g, start, steps)
    counts = np.zeros(g.num_vertices)
    for first in range(0, num_samples, _CHUNK_ROWS):
        seeds = range(seed + first, seed + min(first + _CHUNK_ROWS, num_samples))
        walkers = _Walkers(g, start, seeds, steps)
        everyone = np.arange(len(seeds))
        for _ in range(steps):
            walkers.move(everyone)
        counts += np.bincount(walkers.at, minlength=g.num_vertices)
    return counts / num_samples


def hitting_time_exact(g: Graph, start: int, target: int) -> float:
    """Expected steps to first reach the target, by absorbing-chain solve.

    Makes the target absorbing and solves (I - Q) tau = 1 over the
    transient vertices.
    """
    for v in (start, target):
        if not 0 <= v < g.num_vertices:
            raise ValueError(f"vertex {v} out of range")
    if start == target:
        return 0.0
    t = transition_matrix(g)
    transient = np.array([v for v in range(g.num_vertices) if v != target])
    q = t[np.ix_(transient, transient)]
    tau = scipy.linalg.solve(np.eye(len(transient)) - q, np.ones(len(transient)))
    return float(tau[int(np.searchsorted(transient, start))])


@dataclass
class HittingTimeResult:
    """Sampled first-passage summary; capped walks are counted, not dropped."""

    mean: float | None
    std_error: float | None
    completed: int
    censored: int
    cap: int

    @property
    def censored_fraction(self) -> float:
        total = self.completed + self.censored
        return self.censored / total if total else 0.0


def hitting_time(g: Graph, start: int, target: int, seed: int,
                 num_samples: int, cap: int = 10 ** 6) -> HittingTimeResult:
    """Mean first-passage steps over seeded sample walks.

    Walks that have not hit the target after ``cap`` steps are censored;
    the mean covers completed walks only and the censored count is part of
    the result.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    for v in (start, target):
        if not 0 <= v < g.num_vertices:
            raise ValueError(f"vertex {v} out of range")
    if start == target:
        return HittingTimeResult(0.0, 0.0, num_samples, 0, cap)
    _check_walk_start(g, start, cap)
    hits = []
    censored = 0
    for first in range(0, num_samples, _CHUNK_ROWS):
        seeds = range(seed + first, seed + min(first + _CHUNK_ROWS, num_samples))
        walkers = _Walkers(g, start, seeds, cap)
        hit_at = np.zeros(len(seeds), dtype=np.int64)
        active = np.arange(len(seeds))
        for step in range(1, cap + 1):
            walkers.move(active)
            arrived = walkers.at[active] == target
            hit_at[active[arrived]] = step
            active = active[~arrived]
            if active.size == 0:
                break
        hits.extend(hit_at[hit_at > 0].tolist())
        censored += active.size
    if not hits:
        return HittingTimeResult(None, None, 0, censored, cap)
    mean = float(np.mean(hits))
    std_error = float(np.std(hits, ddof=1) / np.sqrt(len(hits))) if len(hits) > 1 else None
    return HittingTimeResult(mean, std_error, len(hits), censored, cap)
