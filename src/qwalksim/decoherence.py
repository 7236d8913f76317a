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
platforms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .coined import CoinedWalk, PureState, _check_line_headroom
from .errors import InvariantViolationError
from .graphs import Graph

# Exact density evolution holds an HxH complex matrix (H = half-edge count);
# above this dimension use trajectory mode instead.
DENSITY_DIMENSION_LIMIT = 1024

MEASUREMENT_TARGETS = ("position", "coin", "both")

# sentinel in measurement records for a register that was not measured
NOT_MEASURED = -1


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


class DensityState:
    """Density operator over half-edge basis states."""

    def __init__(self, graph: Graph, matrix: np.ndarray):
        n = graph.half_edge_count
        if n > DENSITY_DIMENSION_LIMIT:
            raise ValueError(
                f"graph has {n} half-edges, above the density-matrix limit "
                f"{DENSITY_DIMENSION_LIMIT}; use trajectory mode")
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
    offsets = np.array([graph.coin_offset(v) for v in range(graph.num_vertices)])
    return he - offsets[vertex]


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
    marginal_state = PureState(graph, np.sqrt(np.abs(np.diag(rho0.matrix))))
    _check_line_headroom(marginal_state, steps)
    rho = rho0.matrix
    for rho in itertools.islice(_density_matrices(rho0, spec, coin), steps):
        pass
    return DensityState(graph, np.ascontiguousarray(rho))


def iter_density_steps(rho0: DensityState, spec: DecoherenceSpec,
                       coin: str = "default"):
    """Yield the density state after step 1, 2, ... indefinitely."""
    for rho in _density_matrices(rho0, spec, coin):
        yield DensityState(rho0.graph, rho.copy())


def _collapse(amps: np.ndarray, graph: Graph, target: str,
              rng: np.random.Generator) -> tuple[np.ndarray, int, int]:
    """Measure the target register, collapse, return (state, position, coin)."""
    if target == "both":
        probs = np.abs(amps) ** 2
        cum = np.cumsum(probs)
        k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        out = np.zeros_like(amps)
        out[k] = amps[k] / abs(amps[k])
        v = int(graph.half_edge_vertex[k])
        return out, v, k - graph.coin_offset(v)
    if target == "position":
        probs = np.bincount(graph.half_edge_vertex, weights=np.abs(amps) ** 2,
                            minlength=graph.num_vertices)
        cum = np.cumsum(probs)
        v = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        out = np.zeros_like(amps)
        off, d = graph.coin_offset(v), graph.degree(v)
        out[off:off + d] = amps[off:off + d] / np.sqrt(probs[v])
        return out, v, NOT_MEASURED
    ids = _sector_ids(graph, "coin")
    probs = np.bincount(ids, weights=np.abs(amps) ** 2)
    cum = np.cumsum(probs)
    c = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    out = np.where(ids == c, amps, 0.0) / np.sqrt(probs[c])
    return out, NOT_MEASURED, c


def evolve_trajectory(state0: PureState, spec: DecoherenceSpec, steps: int,
                      seed: int, coin: str = "default",
                      keep_record: bool = True) -> tuple[PureState, np.ndarray | None]:
    """One measured trajectory: unitary step, then collapse with probability p.

    Returns the final pure state and, when ``keep_record`` is set, an
    integer array with one ``step, measured, position, coin`` row per step
    (-1 marks a register that was not measured). Deterministic per seed.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_line_headroom(state0, steps)
    graph = state0.graph
    walk = CoinedWalk(graph, coin)
    rng = np.random.default_rng(seed)
    amps = state0.amplitudes.copy()
    record = np.empty((steps, 4), dtype=np.int64) if keep_record else None
    for step_index in range(1, steps + 1):
        amps = walk.step_amplitudes(amps)
        measured = rng.random() < spec.p
        if measured:
            amps, pos, coin_out = _collapse(amps, graph, spec.target, rng)
        else:
            pos, coin_out = NOT_MEASURED, NOT_MEASURED
        if keep_record:
            record[step_index - 1] = (step_index, int(measured), pos, coin_out)
    return PureState(graph, amps), record


def run_ensemble(state0: PureState, spec: DecoherenceSpec, steps: int,
                 trajectories: int, seed: int,
                 coin: str = "default") -> tuple[np.ndarray, np.ndarray]:
    """Average the final position distribution over independent trajectories.

    Trajectory i uses seed ``seed + i``, so any subset can be reproduced in
    isolation and results do not depend on execution order. Returns the
    per-vertex mean and its standard error.
    """
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    n = state0.graph.num_vertices
    total = np.zeros(n)
    total_sq = np.zeros(n)
    for i in range(trajectories):
        final, _ = evolve_trajectory(state0, spec, steps, seed + i, coin,
                                     keep_record=False)
        p = final.position_distribution()
        total += p
        total_sq += p * p
    mean = total / trajectories
    var = np.maximum(total_sq / trajectories - mean ** 2, 0.0)
    stderr = np.sqrt(var / trajectories)
    return mean, stderr


def record_to_csv(record: np.ndarray) -> str:
    """Measurement record as CSV text with header ``step,measured,position,coin``."""
    lines = ["step,measured,position,coin"]
    lines.extend(f"{s},{m},{p},{c}" for s, m, p, c in record)
    return "\n".join(lines) + "\n"
