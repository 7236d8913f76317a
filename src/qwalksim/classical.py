"""Classical random walks: exact chain propagation, sampling, hitting times.

The transition rule is degree-uniform: probability mass at a vertex splits
equally over its neighbors, which on the line interior is the fair +-1
coin-toss walk. Exact propagation steps on the half-edge table: a step
moves p(v)/degree(v) along each half-edge out of v, in O(H) memory and
work, and builds no V x V array. It is the oracle for every sampled result
and for the quantum classical-limit checks. ``evolve_classical_exact``
returns a ``stats.Distribution``: the state at step ``steps`` of the
sequence whose later states ``iter_classical_distributions`` yields.

The sampled engines keep each walk's stream: walk i draws from
``default_rng(seed + i)`` (``RowStreams``), so each walk is the one a
serial loop of ``nbrs[rng.integers(len(nbrs))]`` calls gives, bit for
bit. Each walk's stream is drawn ahead ``_DRAW_BLOCK`` full-range uint32
values at a time (1 KiB a walk), or fewer for a walk of fewer moves, and
read through a per-row cursor; a walk that runs out, as a long
hitting-time walk does, draws its next block. A chunk holds
``_DRAW_BYTES`` (256 KiB) of pre-drawn uint32s, so its row count follows
from the block: 256 walks of a hitting time, thousands of a short
histogram walk. Scalar ``integers(k)`` draws exactly like this: degree
k = 1 consumes nothing; otherwise it takes one uint32 x and, by Lemire's
rule, returns (x*k) >> 32 unless the low 32 bits of x*k fall below
(2^32 - k) mod k, in which case it rejects x and takes the next draw.
Mixed degrees (glued trees, a line's ends) therefore consume the stream
unevenly, which the per-row cursor follows.

A chunk moves in one of two ways. While at least ``_LOCKSTEP_ROWS`` of
its walks are still moving, they move together as one vector of current
vertices, a few numpy calls a step. Below that, each remaining walk is
handed to a scalar walker that moves it alone in Python ints, from its
vertex and its stream's cursor on. So a hitting-time chunk moves in
lockstep until most of its walks have arrived and walks its slow tail one
at a time; a histogram chunk of fewer walks, and ``sample_walk``'s single
walk, move alone throughout.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graphs import Graph, check_line_headroom
from .stats import Distribution
from .streams import RowStreams, uint32

# Bytes of pre-drawn uint32s a chunk of walks holds; the chunk's row count
# follows from each walk's draw block. The draws are the chunk's largest
# array, and refilling them takes a few temporaries of about their size.
_DRAW_BYTES = 1 << 18
# uint32 draws each walk's stream reads ahead (1 KiB a walk)
_DRAW_BLOCK = 256
_UINT32_MAX = 2 ** 32 - 1
# Fewest walks a chunk moves in lockstep; fewer move alone. A lockstep step
# costs about 17-25 us of numpy calls however few walks it moves, a scalar
# move about 0.32 us with its share of the row's refills (glued_trees(4),
# in process, one BLAS thread), so lockstep pays from about 50-80 walks up.
# Walking every walk alone would take 256 walks censored at 2,000 moves on
# cycle(2001) from 53 ms to 196 ms.
_LOCKSTEP_ROWS = 64


def _shares(g: Graph) -> np.ndarray:
    """1/degree(v), the chance of each move out of v; refused for an isolated vertex."""
    if np.any(g.degrees == 0):
        raise ValueError("graph has an isolated vertex; walk undefined there")
    return 1.0 / g.degrees


def _distributions(g: Graph, start: int, steps: int | None = None) -> Iterator[np.ndarray]:
    """The exact distribution at step 0, 1, 2, ..., none of them ever written;
    the start vertex, the line rule (for a run of known length ``steps``) and
    isolated vertices are checked when this is called, before any step."""
    g.check_vertex(start)
    if steps is not None:
        check_line_headroom(g.kind, g.num_vertices, [start], steps)
    share = _shares(g)
    p = np.zeros(g.num_vertices)
    p[start] = 1.0
    return itertools.accumulate(itertools.repeat(None), lambda p, _: np.bincount(
        g.heads, weights=(p * share)[g.half_edge_vertex], minlength=g.num_vertices), initial=p)


def evolve_classical_exact(g: Graph, start: int, steps: int) -> Distribution:
    """Exact distribution after ``steps`` moves of the degree-uniform chain."""
    p = next(itertools.islice(_distributions(g, start, steps), steps, None))
    return Distribution(p, g.coordinates)


def iter_classical_distributions(g: Graph, start: int) -> Iterator[np.ndarray]:
    """Yield the exact distribution after step 1, 2, ... indefinitely, each the caller's own."""
    return map(np.copy, itertools.islice(_distributions(g, start), 1, None))


def _draw_block(moves: int) -> int:
    """uint32 draws a walk of ``moves`` moves reads ahead: even, as each
    raw output of its stream gives two."""
    block = max(1, min(moves, _DRAW_BLOCK))
    return block + block % 2


def _chunks(num_samples: int, seed: int, moves: int) -> Iterator[range]:
    """The seeds of each chunk of walks, as many as ``_DRAW_BYTES`` of draws hold."""
    rows = max(1, _DRAW_BYTES // (4 * _draw_block(moves)))
    for first in range(0, num_samples, rows):
        yield range(seed + first, seed + min(first + rows, num_samples))


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


def _vertex_moves(nbrs: Sequence[int]) -> tuple[int, int, Sequence[int]]:
    """A vertex's degree k, Lemire's rejection threshold (2^32 - k) mod k, and neighbors."""
    k = len(nbrs)
    return k, (2 ** 32 - k) % k, nbrs


class _Moves(dict):
    """``_vertex_moves`` of each vertex as Python ints, read from the
    half-edge table the first time a scalar walker stands on it."""

    def __init__(self, g: Graph):
        super().__init__()
        self._heads, self._offsets = g.heads, g.offsets

    def __missing__(self, v: int) -> tuple[int, int, Sequence[int]]:
        moves = self[v] = _vertex_moves(self._heads[self._offsets[v]:self._offsets[v + 1]].tolist())
        return moves


def _walk_alone(moves: Mapping, v: int, draws: Iterator[int]) -> Iterator[int]:
    """The vertices one walker visits after v, each move chosen from its own
    uint32 draws as ``_bounded_draws`` chooses it; a degree-1 vertex draws nothing."""
    while True:
        k, threshold, nbrs = moves[v]
        if k == 1:
            v = nbrs[0]
        else:
            m = next(draws) * k
            while m & _UINT32_MAX < threshold:
                m = next(draws) * k
            v = nbrs[m >> 32]
        yield v


class _Walkers:
    """Independent seeded walkers on one graph, one row each.

    Row r moves as ``nbrs[default_rng(seeds[r]).integers(len(nbrs))]``
    would, from the row's own stream of uint32 draws.
    """

    def __init__(self, g: Graph, start: int, seeds, moves: int):
        self._degree = g.degrees.astype(np.uint64)
        self._offsets = g.offsets
        self._heads = g.heads
        self._moves = _Moves(g)
        self._streams = RowStreams(seeds, uint32, _draw_block(moves) // 2)
        self.at = np.full(len(seeds), start, dtype=np.int64)

    def move(self, rows: np.ndarray) -> None:
        """Move each listed row to a uniformly chosen neighbor."""
        here = self.at[rows]
        choice = _bounded_draws(self._streams, rows, self._degree[here])
        self.at[rows] = self._heads[self._offsets[here] + choice]

    def alone(self, row: int) -> Iterator[int]:
        """The vertices row ``row`` visits from here on, moved by the scalar
        walker; ``move`` must not move the row again."""
        return _walk_alone(self._moves, int(self.at[row]), self._streams.row_draws(row))

    def run(self, moves: int, target: int | None = None) -> np.ndarray:
        """Move every row ``moves`` times, or until it stands on ``target``;
        return the move at which each row reached the target, 0 for none.

        Rows move in lockstep while at least ``_LOCKSTEP_ROWS`` are moving,
        then one at a time, each from its own vertex and stream cursor.
        """
        hit_at = np.zeros(len(self.at), dtype=np.int64)
        active = np.arange(len(self.at))
        step = 0
        while active.size >= _LOCKSTEP_ROWS and step < moves:
            step += 1
            self.move(active)
            if target is not None:
                arrived = self.at[active] == target
                hit_at[active[arrived]] = step
                active = active[~arrived]
        if step == moves:
            return hit_at
        for row in active.tolist():
            for t, v in zip(range(step + 1, moves + 1), self.alone(row)):
                if v == target:
                    hit_at[row] = t
                    break
            self.at[row] = v
        return hit_at


def _check_walk_start(g: Graph, start: int, steps: int) -> None:
    """The sampled walks' checks; they do not follow the line rule."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    g.check_vertex(start)
    if steps > 0 and g.degrees[start] == 0:
        raise ValueError(f"start vertex {start} is isolated; the walk is undefined there")


def sample_walk(g: Graph, start: int, steps: int, seed: int) -> np.ndarray:
    """One seeded walk path of length steps+1, uniform neighbor choice each move."""
    _check_walk_start(g, start, steps)
    walk = _Walkers(g, start, [seed], steps).alone(0)
    return np.fromiter(itertools.chain((start,), itertools.islice(walk, steps)),
                       dtype=np.int64, count=steps + 1)


def sample_endpoint_histogram(g: Graph, start: int, steps: int,
                              num_samples: int, seed: int) -> np.ndarray:
    """Empirical endpoint distribution over independent walks.

    Walk i uses seed ``seed + i`` so any single walk can be reproduced.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    _check_walk_start(g, start, steps)
    counts = np.zeros(g.num_vertices)
    for seeds in _chunks(num_samples, seed, steps):
        walkers = _Walkers(g, start, seeds, steps)
        walkers.run(steps)
        counts += np.bincount(walkers.at, minlength=g.num_vertices)
    return counts / num_samples


def hitting_time_exact(g: Graph, start: int, target: int) -> float:
    """Expected steps to first reach the target: with the target absorbing, a dense
    solve of (I - Q) tau = 1 over the target's component, one row per transient
    vertex of it; an isolated start or target, or a start outside that
    component, is refused. Isolated vertices elsewhere are never visited."""
    for v in (start, target):
        g.check_vertex(v)
    if start == target:
        return 0.0
    for v in (start, target):
        if not g.degrees[v]:
            raise ValueError(f"vertex {v} is an isolated vertex; walk undefined there")
    # imported on first use: scipy.sparse.csgraph loads scipy.sparse.linalg (47
    # modules in all), which no other qwalksim call needs
    import scipy.sparse.csgraph
    # the half-edge table is the adjacency matrix's CSR layout
    adjacency = scipy.sparse.csr_matrix((np.ones(g.half_edge_count), g.heads, g.offsets),
                                        shape=(g.num_vertices, g.num_vertices))
    component = scipy.sparse.csgraph.connected_components(adjacency)[1]
    if component[start] != component[target]:
        raise ValueError(f"vertex {start} cannot reach vertex {target}: "
                         "they lie in different components")
    inside = component == component[target]
    moves = inside[g.half_edge_vertex] & (g.half_edge_vertex != target) & (g.heads != target)
    tails, heads = g.half_edge_vertex[moves], g.heads[moves]
    row = np.cumsum(inside & (np.arange(g.num_vertices) != target)) - 1
    m = np.eye(row[-1] + 1, order="F")  # I - Q; LAPACK factors Fortran order in place
    m[row[tails], row[heads]] -= 1.0 / g.degrees[tails]  # each move has chance 1/degree
    tau = scipy.linalg.solve(m, np.ones(len(m)), overwrite_a=True)
    return float(tau[row[start]])


@dataclass
class HittingTimeResult:
    """Sampled first-passage summary; capped walks are counted, not dropped."""

    mean: float | None
    std_error: float | None
    completed: int
    censored: int
    cap: int


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
    g.check_vertex(target)
    if start == target:
        return HittingTimeResult(0.0, 0.0, num_samples, 0, cap)
    _check_walk_start(g, start, cap)
    hits = []
    censored = 0
    for seeds in _chunks(num_samples, seed, cap):
        hit_at = _Walkers(g, start, seeds, cap).run(cap, target)
        arrived = hit_at[hit_at > 0]
        hits.extend(arrived.tolist())
        censored += len(seeds) - arrived.size
    if not hits:
        return HittingTimeResult(None, None, 0, censored, cap)
    mean = float(np.mean(hits))
    std_error = float(np.std(hits, ddof=1) / np.sqrt(len(hits))) if len(hits) > 1 else None
    return HittingTimeResult(mean, std_error, len(hits), censored, cap)
