"""Coined walks under per-step projective measurement with probability p.

Two routes to the same physics: exact density-operator evolution (unitary
step conjugation followed by a dephasing channel) and seeded Monte-Carlo
trajectories (unitary step, then an actual collapse with probability p).
The density route is the oracle; the trajectory route scales to graphs the
density matrix cannot hold.

A density step never forms a dense step operator. U = S·C (half-edge
shift after block-diagonal coin) has d nonzeros per row on a degree-d
graph, so both sides of U rho U† are sparse products over rows with one
transpose in between: O(H^2·d) per step on H half-edges instead of the
O(H^3) of dense matmuls, holding three HxH complex matrices (the iterate,
the transposed half step and the next iterate) besides the real HxH
dephasing factors.

Trajectory randomness comes from ``numpy.random.default_rng`` (the PCG64
generator), so records are bit-reproducible for a fixed seed across
platforms. Trajectory i of an ensemble uses seed ``seed + i``.

The trajectory engine is batched: a chunk of trajectories is one
(rows, H) complex array, row r being trajectory r, stepped by one compiled
``CoinedWalk.step_rows`` per step; only the rows whose measurement fired
are collapsed, together. Each row keeps its own generator. Its uniforms
are drawn ahead in blocks of up to ``_DRAW_BLOCK`` (``RowStreams``) and
read through a per-row cursor, one per step for "measure now?" plus one
per collapse, so a row reads exactly what a lone trajectory would, and
``evolve_trajectory`` is the same kernel run on one row. A chunk holds
about ``_CHUNK_BYTES`` (192 KiB) of amplitudes, a few temporaries of that
size, and rows x 2 KiB of pre-drawn uniforms; the chunk's row count
follows from H.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .coined import CoinedWalk, PureState, _support
from .errors import InvariantViolationError
from .graphs import Graph, check_line_headroom
from .streams import RowStreams

# Exact density evolution holds an HxH complex matrix (H = half-edge count);
# above this dimension use trajectory mode instead.
DENSITY_DIMENSION_LIMIT = 1024

MEASUREMENT_TARGETS = ("position", "coin", "both")

# sentinel in measurement records for a register that was not measured
NOT_MEASURED = -1

# Trajectories step together as one (rows, H) complex array of at most
# this many bytes. A step allocates a few temporaries of about that size;
# past about 384 KiB the allocator stops reusing them and every step
# page-faults (line(101), 200 half-edges: 2 us per trajectory-step at
# 32-96 rows, 8 us at 128 rows); 192 KiB also keeps the peak memory of a
# run at what the serial loop needed.
_CHUNK_BYTES = 3 << 16
# uniform draws each trajectory's stream reads ahead (2 KiB a trajectory)
_DRAW_BLOCK = 256


@dataclass(frozen=True)
class DecoherenceSpec:
    """Measurement probability per step and which register gets measured."""

    p: float = 0.0
    target: str = "both"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"measurement probability must be in [0, 1], got {self.p}")
        if self.target not in MEASUREMENT_TARGETS:
            raise ValueError(
                f"target must be one of {MEASUREMENT_TARGETS}, got {self.target!r}")


def _check_density_dimension(graph: Graph) -> None:
    n = graph.half_edge_count
    if n > DENSITY_DIMENSION_LIMIT:
        raise ValueError(
            f"graph has {n} half-edges, above the density-matrix limit "
            f"{DENSITY_DIMENSION_LIMIT}; use trajectory mode")


class DensityState:
    """Density operator over half-edge basis states."""

    def __init__(self, graph: Graph, matrix: np.ndarray):
        _check_density_dimension(graph)
        n = graph.half_edge_count
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix must have shape ({n}, {n}), got {matrix.shape}")
        self.graph = graph
        self.matrix = matrix

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))

    def position_distribution(self) -> np.ndarray:
        weights = np.diag(self.matrix).real
        return np.bincount(self.graph.half_edge_vertex, weights=weights,
                           minlength=self.graph.num_vertices)

    def check(self, herm_tol: float = 1e-10, trace_tol: float = 1e-10,
              eig_floor: float = -1e-9) -> None:
        """Raise unless Hermitian, unit-trace and positive semidefinite."""
        m = self.matrix
        herm = np.max(np.abs(m - m.conj().T))
        if herm > herm_tol:
            raise InvariantViolationError(f"not Hermitian: max deviation {herm:.3e}")
        tr = np.trace(m)
        if abs(tr - 1.0) > trace_tol:
            raise InvariantViolationError(f"trace {tr} deviates from 1")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < eig_floor:
            raise InvariantViolationError(f"negative eigenvalue {smallest:.3e}")

    def copy(self) -> "DensityState":
        return DensityState(self.graph, self.matrix.copy())


def to_density(state: PureState) -> DensityState:
    """Rank-1 projector |state><state|."""
    _check_density_dimension(state.graph)
    a = state.amplitudes
    return DensityState(state.graph, np.outer(a, a.conj()))


def _sector_ids(graph: Graph, target: str) -> np.ndarray:
    """Measurement-outcome label of each half-edge for the given target."""
    he = np.arange(graph.half_edge_count)
    if target == "both":
        return he
    vertex = graph.half_edge_vertex
    if target == "position":
        return vertex
    return he - graph.offsets[vertex]


def _dephasing_factors(graph: Graph, spec: DecoherenceSpec) -> np.ndarray:
    """Elementwise channel action: same-sector entries keep factor exactly 1."""
    ids = _sector_ids(graph, spec.target)
    same = ids[:, None] == ids[None, :]
    return np.where(same, 1.0, 1.0 - spec.p)


def apply_channel(rho: DensityState, spec: DecoherenceSpec) -> DensityState:
    """rho -> (1-p) rho + p sum_k P_k rho P_k over the target's projectors."""
    return DensityState(rho.graph, rho.matrix * _dephasing_factors(rho.graph, spec))


def _density_matrices(rho0: DensityState, spec: DecoherenceSpec, coin: str):
    """Yield the density matrix after step 1, 2, ... indefinitely.

    Each step is exact for any square matrix, Hermitian or not:
    (U rho)^T = rho^T U^T, and conj(U) rho^T U^T = (U rho U†)^T. So a sparse
    row product, one transpose into a reused buffer and a second row
    product give the transposed result, which the next step consumes with
    the roles of U and conj(U) swapped. Every other iterate is therefore
    held transposed and yielded as a transposed view; the dephasing factors
    are symmetric and apply in either layout. A yielded array is the
    generator's working state: read it before the next resume, never write.
    """
    graph = rho0.graph
    u = CoinedWalk(graph, coin).step_matrix()
    u_conj = u.conj()
    factors = _dephasing_factors(graph, spec)
    turned = np.empty(rho0.matrix.shape, dtype=np.complex128)
    held = rho0.matrix  # rho, or rho^T when `transposed`
    transposed = False
    while True:
        first, second = (u_conj, u) if transposed else (u, u_conj)
        np.copyto(turned, (first @ held).T)
        held = second @ turned
        held *= factors
        transposed = not transposed
        yield held.T if transposed else held


def evolve_density(rho0: DensityState, spec: DecoherenceSpec, steps: int,
                   coin: str = "default") -> DensityState:
    """Iterate (unitary step, then measurement channel) ``steps`` times."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    graph = rho0.graph
    occupied = graph.half_edge_vertex[np.flatnonzero(np.diag(rho0.matrix))]
    check_line_headroom(graph.kind, graph.num_vertices, occupied, steps)
    rho = rho0.matrix
    for rho in itertools.islice(_density_matrices(rho0, spec, coin), steps):
        pass
    return DensityState(graph, np.ascontiguousarray(rho))


def iter_density_steps(rho0: DensityState, spec: DecoherenceSpec,
                       coin: str = "default"):
    """Yield the density state after step 1, 2, ... indefinitely."""
    for rho in _density_matrices(rho0, spec, coin):
        yield DensityState(rho0.graph, rho.copy())


def _chunk_rows(width: int) -> int:
    """Trajectories stepped together, from the half-edge count of the graph."""
    return max(1, _CHUNK_BYTES // (16 * max(width, 1)))


def _uniform_block(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.random(n)


def _row_bincount(labels: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """``np.bincount(labels, weights[r], minlength=count)`` for every row r at once.

    Each bin still sums its weights in half-edge order, so every row gets
    the bits of its own bincount.
    """
    rows = weights.shape[0]
    flat = (labels + count * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, weights=weights.ravel(),
                       minlength=rows * count).reshape(rows, count)


def _collapse_rows(amps: np.ndarray, rows: np.ndarray, draws: np.ndarray,
                   graph: Graph, target: str,
                   coin_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure the target register of the listed rows, collapsing them in place.

    A row's outcome is ``searchsorted(cum, draw * cum[-1], side="right")``
    over its cumulated outcome probabilities; counting the entries not
    above the threshold is the same index. Returns each row's measured
    position and coin, NOT_MEASURED for a register the target leaves alone.
    """
    picked = amps[rows]
    weights = np.abs(picked) ** 2
    if target == "both":
        probs = weights
    elif target == "position":
        probs = _row_bincount(graph.half_edge_vertex, weights, graph.num_vertices)
    else:
        probs = _row_bincount(coin_ids, weights, int(coin_ids.max()) + 1)
    cum = np.cumsum(probs, axis=1)
    outcome = (cum <= (draws * cum[:, -1])[:, None]).sum(axis=1)
    if target == "both":
        kept = picked[np.arange(len(rows)), outcome]
        amps[rows] = 0.0
        # the phase a lone trajectory keeps, amps[k] / abs(amps[k]) on
        # scalars: abs of a complex scalar is the hypot of its parts, which
        # np.abs on an array misses in the last bit
        amps[rows, outcome] = kept / np.hypot(kept.real, kept.imag)
        return graph.half_edge_vertex[outcome], coin_ids[outcome]
    labels = graph.half_edge_vertex if target == "position" else coin_ids
    norm = np.sqrt(probs[np.arange(len(rows)), outcome])
    amps[rows] = np.where(labels == outcome[:, None], picked, 0.0) / norm[:, None]
    unmeasured = np.full(len(rows), NOT_MEASURED)
    if target == "position":
        return outcome, unmeasured
    return unmeasured, outcome


def _trajectories(walk: CoinedWalk, amps0: np.ndarray, spec: DecoherenceSpec,
                  steps: int, seeds, keep_record: bool):
    """Run one measured trajectory per seed, as the rows of one array.

    Row r is the trajectory of ``default_rng(seeds[r])``. Each step draws
    one uniform to decide whether to measure and, when it fires, one more
    for the outcome, in that order, so a row reads its stream exactly as a
    lone trajectory would. Returns the final (rows, H) amplitudes and, with
    ``keep_record``, the (rows, steps, 4) measurement records.
    """
    graph = walk.graph
    rows = len(seeds)
    amps = np.repeat(amps0[None, :], rows, axis=0)
    record = None
    if keep_record:
        record = np.full((rows, steps, 4), NOT_MEASURED, dtype=np.int64)
        record[:, :, 0] = np.arange(1, steps + 1)
        record[:, :, 1] = 0
    streams = RowStreams(seeds, _uniform_block, max(1, min(2 * steps, _DRAW_BLOCK)))
    coin_ids = _sector_ids(graph, "coin")
    everyone = np.arange(rows)
    for t in range(steps):
        amps = walk.step_rows(amps)
        fired = everyone[streams.next(everyone) < spec.p]
        if fired.size == 0:
            continue
        position, coin_out = _collapse_rows(amps, fired, streams.next(fired), graph,
                                            spec.target, coin_ids)
        if keep_record:
            record[fired, t, 1] = 1
            record[fired, t, 2] = position
            record[fired, t, 3] = coin_out
    return amps, record


def evolve_trajectory(state0: PureState, spec: DecoherenceSpec, steps: int,
                      seed: int, coin: str = "default",
                      keep_record: bool = True) -> tuple[PureState, np.ndarray | None]:
    """One measured trajectory: unitary step, then collapse with probability p.

    Returns the final pure state and, when ``keep_record`` is set, an
    integer array with one ``step, measured, position, coin`` row per step
    (-1 marks a register that was not measured). Deterministic per seed;
    it is the ensemble kernel run on a single row.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    graph = state0.graph
    check_line_headroom(graph.kind, graph.num_vertices, _support(state0), steps)
    walk = CoinedWalk(graph, coin)
    amps, record = _trajectories(walk, state0.amplitudes, spec, steps, [seed], keep_record)
    return PureState(graph, amps[0]), None if record is None else record[0]


def run_ensemble(state0: PureState, spec: DecoherenceSpec, steps: int,
                 trajectories: int, seed: int,
                 coin: str = "default") -> tuple[np.ndarray, np.ndarray]:
    """Average the final position distribution over independent trajectories.

    Trajectory i uses seed ``seed + i``, so any subset can be reproduced in
    isolation and results do not depend on execution order or batching.
    Returns the per-vertex mean and its standard error.
    """
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    graph = state0.graph
    check_line_headroom(graph.kind, graph.num_vertices, _support(state0), steps)
    walk = CoinedWalk(graph, coin)
    n = graph.num_vertices
    total = np.zeros(n)
    total_sq = np.zeros(n)
    chunk = _chunk_rows(graph.half_edge_count)
    for first in range(0, trajectories, chunk):
        seeds = range(seed + first, seed + min(first + chunk, trajectories))
        amps, _ = _trajectories(walk, state0.amplitudes, spec, steps, seeds, False)
        p = _row_bincount(graph.half_edge_vertex, np.abs(amps) ** 2, n)
        # running sums in trajectory order, the bits a serial loop adds up
        total = np.cumsum(np.vstack((total, p)), axis=0)[-1]
        total_sq = np.cumsum(np.vstack((total_sq, p * p)), axis=0)[-1]
    mean = total / trajectories
    var = np.maximum(total_sq / trajectories - mean ** 2, 0.0)
    stderr = np.sqrt(var / trajectories)
    return mean, stderr


def record_to_csv(record: np.ndarray) -> str:
    """Measurement record as CSV text with header ``step,measured,position,coin``."""
    lines = ["step,measured,position,coin"]
    lines.extend(f"{s},{m},{p},{c}" for s, m, p, c in record)
    return "\n".join(lines) + "\n"
