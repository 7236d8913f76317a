"""Continuous-time quantum walk: Hamiltonian from the graph, exact evolution.

The Hamiltonian is gamma times the graph Laplacian by default (H = g(D - A));
the pure-adjacency convention (H = -gA) is available as a switch. Evolution
uses a full dense symmetric eigendecomposition, so any time is exact and
repeated times reuse the same factorization. ``evolve_ct`` gives every
amplitude at one time. A series on an evenly spaced time grid goes through
one grid kernel (``_grid_amplitudes``), which evaluates only the points
and vertices asked for, without BLAS, a block of points at a time, and
gives a point the same bits however it is asked.

For glued trees the walk started at the entrance stays in the
column-uniform subspace, so a (2*depth+2)-dimensional chain Hamiltonian
(``reduce_columns``) reproduces the full-graph dynamics: column c's
probability |a_c|^2 spreads evenly over its ``column_sizes`` N_c vertices.
The chain runs at any depth. ``walk_distribution`` chooses the route: it
runs every walk from the entrance this way and returns the chain, whose
eigendecomposition then serves the caller's exit series
(``transfer_series``); the command line calls it for every continuous walk.
It still takes the full graph, to give one probability per vertex, so memory
grows with the 2^(depth+2) - 2 vertices (about 300 MB at depth 18; depth 40
would need 16 TiB). Every other start and graph builds the dense
Hamiltonian of the full graph, which ``hamiltonian`` refuses above
``CONTINUOUS_DIMENSION_LIMIT`` vertices before allocating it.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GlueSpec, glued_trees_entrance_exit

HAMILTONIAN_CONVENTIONS = ("laplacian", "adjacency")

# A dense Hamiltonian holds n^2 floats (128 MiB at this limit) and its
# eigenvectors as many again; above this many vertices it is refused before
# anything is allocated. hypercube(12) and glued_trees(10) still fit.
CONTINUOUS_DIMENSION_LIMIT = 4096

# evenly spaced times in an exit-probability series, both ends included
SERIES_POINTS = 2001


class Hamiltonian:
    """Real symmetric generator with its eigendecomposition cached."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        if not np.allclose(matrix, matrix.T):
            raise ValueError("matrix must be symmetric")
        self.matrix = matrix
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eigvals is None:
            self._eigvals, self._eigvecs = np.linalg.eigh(self.matrix)
        return self._eigvals, self._eigvecs


def _check_generator(gamma: float, convention: str) -> None:
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    if convention not in HAMILTONIAN_CONVENTIONS:
        raise ValueError(
            f"convention must be one of {HAMILTONIAN_CONVENTIONS}, got {convention!r}")


def hamiltonian(g: Graph, gamma: float = 1.0,
                convention: str = "laplacian") -> Hamiltonian:
    """Walk generator for a graph with hopping rate gamma per unit time."""
    _check_generator(gamma, convention)
    if g.num_vertices > CONTINUOUS_DIMENSION_LIMIT:
        raise ValueError(
            f"graph has {g.num_vertices} vertices, above the dense Hamiltonian limit "
            f"{CONTINUOUS_DIMENSION_LIMIT}; a glued-trees walk started at the "
            "entrance runs on the column chain")
    a = g.adjacency_matrix()
    if convention == "adjacency":
        return Hamiltonian(-gamma * a)
    degrees = a.sum(axis=1)
    return Hamiltonian(gamma * (np.diag(degrees) - a))


def evolve_ct(h: Hamiltonian, initial: np.ndarray, time: float) -> np.ndarray:
    """Apply exp(-i H t) to the initial amplitude vector."""
    if not (np.isfinite(time) and time >= 0):
        raise ValueError(f"time must be finite and >= 0, got {time}")
    initial = np.asarray(initial, dtype=np.complex128)
    if initial.shape != (h.dimension,):
        raise ValueError(
            f"initial must have shape ({h.dimension},), got {initial.shape}")
    if not np.isclose(np.linalg.norm(initial), 1.0, atol=1e-8):
        raise ValueError("initial amplitudes must be a unit vector")
    vals, vecs = h._eig()
    return vecs @ (np.exp(-1j * vals * time) * (vecs.T @ initial))


# width of the fine phase table of the grid kernel: a grid of T points takes
# about T/W + W exponentials per eigenvalue instead of T
_PHASE_TABLE_WIDTH = 64

# the grid kernel takes its points in blocks of whole coarse rows (W points
# each), as many as keep a block's (points, vertices, eigenvalues) product
# within this many bytes, or one coarse row. Up to 128 eigenvalues each
# temporary then stays below glibc's default mmap threshold (128 KiB) and
# reuses heap memory; (T, n) temporaries for a whole grid took fresh pages
# on every call (2.6 MB each, 1,250 minor faults an exit series at depth 40)
_GRID_BLOCK_BYTES = 64 * 1024


def _grid_amplitudes(h: Hamiltonian, source: int, t_max: float, num_times: int,
                     vertices, indices=None) -> np.ndarray:
    """Amplitudes on ``vertices`` at t_j = j*dt, j in ``indices`` (default: all
    ``num_times`` points of the grid on [0, t_max]), from basis vector ``source``.

    a_v(t) = sum_k exp(-i l_k t) V[s, k] V[v, k]; the phase at t_j is
    coarse[j // W] * fine[j % W], two small exp tables, and the sum over k
    is a numpy last-axis sum. The points are taken in blocks of whole
    coarse rows under ``_GRID_BLOCK_BYTES``. All of it is elementwise or
    per row, so a point's bits do not depend on what else is asked, nor on
    the blocks, nor on BLAS threads.
    """
    vals, vecs = h._eig()
    dt = t_max / (num_times - 1) if num_times > 1 else 0.0
    j = np.arange(num_times) if indices is None else np.asarray(indices)
    width = _PHASE_TABLE_WIDTH
    coarse_times = np.arange(j.max() // width + 1) * width * dt
    coarse = np.exp(-1j * np.outer(coarse_times, vals))
    fine = np.exp(-1j * np.outer(np.arange(width) * dt, vals))
    coarse_row, fine_row = np.divmod(j, width)
    weights = vecs[source] * vecs[vertices]
    rows = width * max(1, _GRID_BLOCK_BYTES // (16 * width * weights.size))
    out = np.empty((len(j),) + weights.shape[:-1], np.complex128)
    for first in range(0, len(j), rows):
        block = slice(first, first + rows)
        phases = coarse[coarse_row[block]] * fine[fine_row[block]]
        np.sum(phases[:, None, :] * weights, axis=-1, out=out[block])
    return out


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
    _check_generator(gamma, convention)
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
    return Hamiltonian(m)


def exit_signal(depth: int, glue: GlueSpec, gamma: float = 1.0,
                t_max: float | None = None, num_times: int = SERIES_POINTS,
                convention: str = "laplacian") -> tuple[np.ndarray, np.ndarray]:
    """Exit-column probability over a time grid, from the reduced chain.

    The exit column holds a single vertex, so this equals the exit-vertex
    probability of the full graph. Default horizon is 4*depth time units.
    """
    if t_max is None:
        t_max = 4.0 * depth
    h = reduce_columns(depth, glue, gamma, convention)
    return transfer_series(h, 0, h.dimension - 1, t_max, num_times)


def transfer_series(h: Hamiltonian, source: int, target: int, t_max: float,
                    num_times: int = SERIES_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Probability on basis vector ``target`` over ``num_times`` evenly spaced
    times in [0, t_max], for the walk started on basis vector ``source``."""
    if not (np.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if num_times < 1:
        raise ValueError(f"num_times must be >= 1, got {num_times}")
    times = np.linspace(0.0, t_max, num_times)
    amps = _grid_amplitudes(h, source, t_max, num_times, [target])
    return times, np.abs(amps[:, 0]) ** 2


def walk_distribution(g: Graph, start: int, time: float, gamma: float = 1.0,
                      convention: str = "laplacian") -> tuple[np.ndarray, dict, Hamiltonian | None]:
    """Per-vertex probabilities at ``time`` from ``start``, the route's check
    and the column chain it ran on (None off the glued-trees entrance).

    On the chain the time is the last point of a ``SERIES_POINTS`` grid on
    [0, time], so ``transfer_series`` on that grid ends on the same bits.
    """
    g.check_vertex(start)
    if not (np.isfinite(time) and time >= 0):
        raise ValueError(f"time must be finite and >= 0, got {time}")
    chain = None
    if g.kind == "glued_trees" and start == glued_trees_entrance_exit(g)[0]:
        depth, glue = g.params["depth"], GlueSpec(g.params["glue_mode"], g.params["glue_seed"])
        chain = reduce_columns(depth, glue, gamma, convention)
        amps = _grid_amplitudes(chain, 0, time, SERIES_POINTS, slice(None), [SERIES_POINTS - 1])[0]
        probs = (np.abs(amps) ** 2 / column_sizes(depth))[g.labels]
    else:
        initial = np.zeros(g.num_vertices, dtype=np.complex128)
        initial[start] = 1.0
        amps = evolve_ct(hamiltonian(g, gamma, convention), initial, time)
        probs = np.abs(amps) ** 2
    check = {"route": "full-graph" if chain is None else "column-chain",
             "norm_deviation": float(abs(np.linalg.norm(amps) - 1.0))}
    return probs, check, chain


def first_peak_time(times: np.ndarray, values: np.ndarray,
                    floor: float = 1e-6) -> tuple[float, float]:
    """Time and height of the first local maximum above the floor."""
    peaks = _peak_indices(values, floor)
    if peaks.size == 0:
        raise ValueError("no peak above floor in the given time window")
    k = int(peaks[0])
    return float(times[k]), float(values[k])


def _peak_indices(values: np.ndarray, floor: float) -> np.ndarray:
    """The peaks ``scipy.signal.find_peaks(values, height=floor)`` finds.

    A peak is a run of equal values, one long or a plateau, with a strictly
    lower neighbour on both sides and a height of at least ``floor``; it is
    reported at the run's midpoint ``(first + last) // 2``. A run that
    touches either end of the series is never a peak.
    """
    ends = np.flatnonzero(values[1:] != values[:-1])  # the last index of a run
    before, last = ends[:-1], ends[1:]  # the runs between two changes
    top = values[last]
    peak = (values[before] < top) & (top > values[last + 1]) & (top >= floor)
    return (before[peak] + 1 + last[peak]) // 2


def exit_series_csv(times: np.ndarray, values: np.ndarray) -> str:
    """Exit-probability series as CSV text with header ``time,exit_probability``."""
    rows = (f"{t:.15g},{v:.15g}\n" for t, v in zip(times.tolist(), values.tolist()))
    return "".join(["time,exit_probability\n", *rows])
