"""Continuous-time quantum walk: Hamiltonian from the graph, exact evolution.

The Hamiltonian is gamma times the graph Laplacian by default (H = g(D - A));
the pure-adjacency convention (H = -gA) is available as a switch. Evolution
uses a full dense symmetric eigendecomposition, so any time is exact and
repeated times reuse the same factorization. ``evolve_ct_many`` is the one
evolution path; ``evolve_ct`` is its single-time case.

For glued trees the walk started at the entrance stays in the
column-uniform subspace, so a (2*depth+2)-dimensional chain Hamiltonian
reproduces the full-graph dynamics; this reduction handles depths far past
what the full graph allows.
"""

from __future__ import annotations

import numpy as np
import scipy.signal

from .graphs import Graph, GlueSpec, glued_trees_entrance_exit

HAMILTONIAN_CONVENTIONS = ("laplacian", "adjacency")


class Hamiltonian:
    """Real symmetric generator with its eigendecomposition cached."""

    def __init__(self, matrix: np.ndarray, gamma: float, basis: str = "vertices"):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        if not np.allclose(matrix, matrix.T):
            raise ValueError("matrix must be symmetric")
        self.matrix = matrix
        self.gamma = gamma
        self.basis = basis
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eigvals is None:
            self._eigvals, self._eigvecs = np.linalg.eigh(self.matrix)
        return self._eigvals, self._eigvecs


def hamiltonian(g: Graph, gamma: float = 1.0,
                convention: str = "laplacian") -> Hamiltonian:
    """Walk generator for a graph with hopping rate gamma per unit time."""
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if convention not in HAMILTONIAN_CONVENTIONS:
        raise ValueError(
            f"convention must be one of {HAMILTONIAN_CONVENTIONS}, got {convention!r}")
    a = g.adjacency_matrix()
    if convention == "adjacency":
        return Hamiltonian(-gamma * a, gamma)
    degrees = a.sum(axis=1)
    return Hamiltonian(gamma * (np.diag(degrees) - a), gamma)


def evolve_ct(h: Hamiltonian, initial: np.ndarray, time: float) -> np.ndarray:
    """Apply exp(-i H t) to the initial amplitude vector."""
    return evolve_ct_many(h, initial, [time])[0]


def evolve_ct_many(h: Hamiltonian, initial: np.ndarray,
                   times: np.ndarray) -> np.ndarray:
    """Amplitudes at each requested time, stacked as rows.

    One time runs as a matrix-vector product, several as a matrix product;
    their BLAS kernels may round a row differently in the last place.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"times must be >= 0, got {times.min()}")
    initial = np.asarray(initial, dtype=np.complex128)
    if initial.shape != (h.dimension,):
        raise ValueError(
            f"initial must have shape ({h.dimension},), got {initial.shape}")
    if not np.isclose(np.linalg.norm(initial), 1.0, atol=1e-8):
        raise ValueError("initial amplitudes must be a unit vector")
    vals, vecs = h._eig()
    coeff = vecs.T @ initial
    phases = np.exp(-1j * np.outer(times, vals))
    return (vecs @ (phases * coeff).T).T


def column_sizes(depth: int) -> np.ndarray:
    """Vertices per column of a depth-d glued-trees graph: 1,2,...,2^d,2^d,...,2,1.

    Float64 holds these powers of two exactly up to depth 1023, where int64
    would wrap from depth 63.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    left = 2.0 ** np.arange(depth + 1)
    return np.concatenate([left, left[::-1]])


def reduce_columns(depth: int, glue: GlueSpec, gamma: float = 1.0,
                   convention: str = "laplacian") -> Hamiltonian:
    """Chain Hamiltonian on the 2*depth+2 glued-trees columns.

    Every vertex of a column has the same degree and the same number of
    neighbors in each adjacent column (true for both glue modes), so the
    column-uniform subspace is invariant and the full walk from the
    entrance is captured by couplings -g*E_c/sqrt(N_c*N_{c+1}) with E_c
    edges between columns of sizes N_c, N_{c+1}. Uniform-state amplitude in
    column c corresponds to sqrt(N_c) times the per-vertex amplitude.

    Dividing E_c by m = min(N_c, N_{c+1}) and N_c*N_{c+1} by m^2 keeps the
    coupling, bit for bit since m is a power of two, and leaves small
    numbers at any depth: inside a tree each vertex of the smaller column
    has two edges and the sizes differ by 2; at the glue the sizes are
    equal and each leaf has one (symmetric) or two (random cycle) edges.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if convention not in HAMILTONIAN_CONVENTIONS:
        raise ValueError(
            f"convention must be one of {HAMILTONIAN_CONVENTIONS}, got {convention!r}")
    n = 2 * depth + 2

    edges_per_vertex = np.full(n - 1, 2.0)
    edges_per_vertex[depth] = 1.0 if glue.mode == "symmetric" else 2.0
    size_ratio = np.full(n - 1, 2.0)
    size_ratio[depth] = 1.0

    m = np.zeros((n, n))
    coupling = -gamma * edges_per_vertex / np.sqrt(size_ratio)
    for c in range(n - 1):
        m[c, c + 1] = coupling[c]
        m[c + 1, c] = coupling[c]
    if convention == "laplacian":
        # common vertex degree per column: roots 2, internal 3, leaf layer
        # 2 (one glue edge each) or 3 (two glue edges each)
        leaf_degree = 3 if glue.mode == "random-cycle" else 2
        degrees = np.full(n, 3.0)
        degrees[[0, n - 1]] = 2.0
        degrees[[depth, depth + 1]] = leaf_degree
        m += gamma * np.diag(degrees)
    return Hamiltonian(m, gamma, basis="glued-trees columns")


def entrance_state(dimension: int) -> np.ndarray:
    """Unit amplitude on the first basis vector (entrance column or vertex)."""
    v = np.zeros(dimension, dtype=np.complex128)
    v[0] = 1.0
    return v


def exit_signal(depth: int, glue: GlueSpec, gamma: float = 1.0,
                t_max: float | None = None, num_times: int = 2001,
                convention: str = "laplacian") -> tuple[np.ndarray, np.ndarray]:
    """Exit-column probability over a time grid, from the reduced chain.

    The exit column holds a single vertex, so this equals the exit-vertex
    probability of the full graph. Default horizon is 4*depth time units.
    """
    if t_max is None:
        t_max = 4.0 * depth
    h = reduce_columns(depth, glue, gamma, convention)
    times = np.linspace(0.0, t_max, num_times)
    amps = evolve_ct_many(h, entrance_state(h.dimension), times)
    return times, np.abs(amps[:, -1]) ** 2


def first_peak_time(times: np.ndarray, values: np.ndarray,
                    floor: float = 1e-6) -> tuple[float, float]:
    """Time and height of the first local maximum above the floor."""
    peaks, _ = scipy.signal.find_peaks(values, height=floor)
    if peaks.size == 0:
        raise ValueError("no peak above floor in the given time window")
    k = int(peaks[0])
    return float(times[k]), float(values[k])


def threshold_crossing_time(times: np.ndarray, values: np.ndarray,
                            threshold: float) -> float | None:
    """First grid time at which the signal reaches the threshold, if any."""
    hits = np.flatnonzero(values >= threshold)
    if hits.size == 0:
        return None
    return float(times[int(hits[0])])


def full_graph_exit_signal(graph: Graph, gamma: float = 1.0,
                           t_max: float | None = None, num_times: int = 2001,
                           convention: str = "laplacian") -> tuple[np.ndarray, np.ndarray]:
    """Exit-vertex probability on the full glued-trees graph (oracle for the
    reduced chain; feasible only at small depth)."""
    entrance, exit_vertex = glued_trees_entrance_exit(graph)
    if t_max is None:
        t_max = 4.0 * graph.params["depth"]
    h = hamiltonian(graph, gamma, convention)
    initial = np.zeros(graph.num_vertices, dtype=np.complex128)
    initial[entrance] = 1.0
    times = np.linspace(0.0, t_max, num_times)
    amps = evolve_ct_many(h, initial, times)
    return times, np.abs(amps[:, exit_vertex]) ** 2


def exit_series_csv(times: np.ndarray, values: np.ndarray) -> str:
    """Exit-probability series as CSV text with header ``time,exit_probability``."""
    lines = ["time,exit_probability"]
    lines.extend(f"{t:.15g},{v:.15g}" for t, v in zip(times, values))
    return "\n".join(lines) + "\n"
