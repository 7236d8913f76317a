"""Coined walks under per-step projective measurement with probability p.

Two routes to the same physics: exact density-operator evolution (unitary
step conjugation followed by a dephasing channel) and seeded Monte-Carlo
trajectories (unitary step, then an actual collapse with probability p).
The density route is the oracle; the trajectory route scales to graphs the
density matrix cannot hold.

A density step never forms a dense step operator. U = S·C (half-edge
shift after block-diagonal coin) has d nonzeros per row on a degree-d
graph, so both sides of U rho U† are sparse products over rows with one
transpose in between. The step works on the reachable set: the half-edges
S that hold the state's rows and columns, mapped each step to the rows of
U that touch S. That costs O(|S|^2·d) per step instead of the O(H^3) of
dense matmuls on all H, with the bits of the full-range step. A walk on a
bipartite graph keeps the parity of its step count, so S is one of two
halves of the half-edges: a walk started at one site of the line holds
|S| = 2t after t steps, half of the span it has crossed; an odd cycle
covers all H half-edges after a few steps. Memory: two flat complex
buffers (the iterate and the half step, each reshaped to the set), at
least doubled when a set first needs more room and never beyond H^2
entries, besides the real dephasing factors on the last two sets; a
``DensityState`` holds only S and its |S|x|S| block.

Both routes step on one plan per set, through one plan sequence,
``_StepPlans``: ``_step_plan`` restricts U's CSR arrays to the rows
S_{t+1} and the columns S_t, S_{t+1} being the rows of U with a nonzero in
a column of S_t, and ``_sparse_product`` multiplies the states held on S_t
by it. The density route adds the conjugate data and the dephasing
factors on S_{t+1}xS_{t+1} (``_density_plan``). U leaves out the blocks of
vertices whose coin the family does not define; a state that holds
amplitude on one of their half-edges before a step raises the lone
walker's ``UnsupportedDegreeError``, so a line walk with the Hadamard coin,
which never reaches the degree-1 ends, runs on every route.

Trajectory randomness comes from ``numpy.random.default_rng`` (the PCG64
generator), so records are bit-reproducible for a fixed seed across
platforms. Trajectory i of an ensemble uses seed ``seed + i``.

The trajectory engine is batched and works on the reachable set S_t, the
half-edges U reaches in t steps from the start's support. A collapse only
shrinks a state's support, so one set per step holds every trajectory: a
chunk is one (|S_t|, rows) complex array, column r being trajectory r. A
chunk steps as one sparse product with its set's plan (48 bytes per
reached half-edge of a degree-2 vertex), so each entry has the bits of the
full-range product of ``CoinedWalk.step_matrix()`` with the state the
chunk holds. ``run_ensemble`` plans each step once for all its chunks
while the plans fit in ``_PLAN_BYTES`` (16 MiB), and each chunk plans the
steps past them again; a run of one chunk keeps no plan. Only the
trajectories whose measurement fired are collapsed, together, on the set.
Each keeps its own PCG64 stream, one row of ``RowStreams``'s state arrays,
whose uniforms are drawn ahead in blocks of up to ``_DRAW_BLOCK`` and read
through a per-row cursor, one per step for "measure now?" plus one per
collapse, so a trajectory reads exactly what it would alone, and
``evolve_trajectory`` is the same kernel run on a single trajectory.

One rule sizes every chunk, whatever its walk: ``_CHUNK_BYTES`` (4 MiB) //
(16 max(H, ceil(V / 2), ``_DRAW_BLOCK``)) rows. A chunk's amplitudes, on a
set of at most H half-edges, and its rows' float64 position distributions
on the V vertices each take at most ``_CHUNK_BYTES``, and its rows' 2 KiB
of pre-drawn uniforms at most half of it, besides temporaries of up to a
few times those. A run therefore holds at most ``_PLAN_BYTES`` of kept
plans and a few times ``_CHUNK_BYTES`` of chunk arrays, however many
trajectories it runs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from .coined import CoinedWalk, PureState, _row_bincount, _row_labels, _support
from .errors import InvariantViolationError
from .graphs import Graph, check_line_headroom
from .streams import RowStreams, uniform

# Exact density evolution holds an |S|x|S| complex block on the reachable
# half-edges S (at most HxH, H = half-edge count), but graphs above this
# many half-edges are refused before the first step; use trajectory mode
# instead.
DENSITY_DIMENSION_LIMIT = 1024

MEASUREMENT_TARGETS = ("position", "coin", "both")

# sentinel in measurement records for a register that was not measured
NOT_MEASURED = -1

# Trajectories step together in chunks of _CHUNK_BYTES // (16 max(H, V / 2,
# _DRAW_BLOCK)) rows: a chunk's (|S_t|, rows) complex amplitudes and its
# rows' (rows, V) float64 position distributions each take at most this many
# bytes, and its pre-drawn uniforms at most half of it. A step allocates a
# few temporaries of up to twice that size, the running sums take the
# distributions' squares once more, and a refill of the uniforms takes about
# five times theirs. Larger chunks share each plan and numpy call among more
# trajectories: against 192 KiB chunks sized by the widest set, 50 steps on
# line(101) from the middle took 200 trajectories from 7.5 to 5.9 ms (one
# chunk, not 122 + 78 rows) and 20,000 from 0.54 to 0.43 s, and 500 steps of
# 2,000 trajectories on line(1001) from 4.4 to 2.4 s (best of three
# alternating processes, in process, 1 BLAS thread, 2-vCPU guest).
_CHUNK_BYTES = 4 << 20
# uniform draws each trajectory's stream reads ahead (2 KiB a trajectory)
_DRAW_BLOCK = 256
# A run of more than one chunk keeps the plans of its first steps, up to
# this many bytes, for all its chunks (``_StepPlans``); each chunk plans the
# later steps again. A plan takes at most 48 bytes per reached half-edge of
# a degree-2 vertex: the ensemble workload's 50 steps on line(101) take 119
# KB, a 400-step line walk 7.7 MB, and a walk from the middle of line(4001)
# outgrows this budget at step 592; 10,000 steps on a line would take 4.8
# GB.
_PLAN_BYTES = 16 << 20


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


def _live_indices(matrix: np.ndarray) -> np.ndarray:
    """Indices whose row or column of ``matrix`` holds a nonzero entry."""
    nonzero = matrix != 0
    return np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))


class DensityState:
    """Density operator over half-edge basis states: the |S|x|S| complex
    ``block`` on the ascending half-edges ``support`` (read-only), zero
    elsewhere. Interference can leave a row of the block all zero."""

    def __init__(self, graph: Graph, matrix: np.ndarray):
        _check_density_dimension(graph)
        n = graph.half_edge_count
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix must have shape ({n}, {n}), got {matrix.shape}")
        support = _live_indices(matrix)
        support.flags.writeable = False
        self.graph, self.support, self.block = graph, support, matrix[np.ix_(support, support)]

    @classmethod
    def _on_support(cls, graph: Graph, support: np.ndarray, block: np.ndarray):
        rho = cls.__new__(cls)
        support.flags.writeable = False
        rho.graph, rho.support, rho.block = graph, support, block
        return rho

    def _trace(self) -> complex:
        # numpy's pairwise sum groups terms by position: sum over all H half-edges
        diagonal = np.zeros(self.graph.half_edge_count, dtype=np.complex128)
        diagonal[self.support] = np.diagonal(self.block)
        return diagonal.sum()

    def trace(self) -> float:
        return float(self._trace().real)

    def position_distribution(self) -> np.ndarray:
        return np.bincount(self.graph.half_edge_vertex[self.support],
                           weights=np.diagonal(self.block).real,
                           minlength=self.graph.num_vertices)

    def check(self, herm_tol: float = 1e-10, trace_tol: float = 1e-10,
              eig_floor: float = -1e-9) -> dict:
        """Raise unless Hermitian, unit-trace and positive semidefinite.

        Returns the residuals: the largest Hermiticity deviation, |trace - 1|,
        the smallest eigenvalue and the live dimension. The Hermiticity
        check and ``eigvalsh`` run on the live rows and columns alone (those
        holding a nonzero entry), which hold every nonzero entry; each dead
        one adds only a zero eigenvalue, so every residual is exact.
        """
        live = _live_indices(self.block)
        block = self.block[np.ix_(live, live)]
        herm = float(np.max(np.abs(block - block.conj().T), initial=0.0))
        if herm > herm_tol:
            raise InvariantViolationError(f"not Hermitian: max deviation {herm:.3e}")
        tr = self._trace()
        if abs(tr - 1.0) > trace_tol:
            raise InvariantViolationError(f"trace {tr} deviates from 1")
        smallest = float(np.linalg.eigvalsh(block)[0]) if live.size else 0.0
        if live.size < self.graph.half_edge_count:
            smallest = min(smallest, 0.0)
        if smallest < eig_floor:
            raise InvariantViolationError(f"negative eigenvalue {smallest:.3e}")
        return {"hermiticity_deviation": herm, "trace_deviation": float(abs(tr - 1.0)),
                "min_eigenvalue": smallest, "live_dimension": int(live.size)}


def to_density(state: PureState) -> DensityState:
    """Rank-1 projector |state><state| on the state's nonzero amplitudes."""
    _check_density_dimension(state.graph)
    support = np.flatnonzero(state.amplitudes)
    a = state.amplitudes[support]
    return DensityState._on_support(state.graph, support, np.outer(a, a.conj()))


def _sector_ids(graph: Graph, target: str) -> np.ndarray:
    """Measurement-outcome label of each half-edge for the given target."""
    he = np.arange(graph.half_edge_count)
    if target == "both":
        return he
    vertex = graph.half_edge_vertex
    if target == "position":
        return vertex
    return he - graph.offsets[vertex]


def _dephasing_block(ids: np.ndarray, p: float) -> np.ndarray:
    """Elementwise channel action among half-edges with sector labels ``ids``:
    same-sector entries keep factor exactly 1."""
    return np.where(ids[:, None] == ids[None, :], 1.0, 1.0 - p)


def apply_channel(rho: DensityState, spec: DecoherenceSpec) -> DensityState:
    """rho -> (1-p) rho + p sum_k P_k rho P_k over the target's projectors."""
    ids = _sector_ids(rho.graph, spec.target)[rho.support]
    return DensityState._on_support(rho.graph, rho.support,
                                    rho.block * _dephasing_block(ids, spec.p))


def _sparse_product(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                    x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = A @ x`` in place, A the CSR matrix (data, indices, indptr).

    The kernel scipy runs for ``csr_matrix @ ndarray``: every entry of
    ``out`` starts at +0 and adds its row's terms in stored order, so the
    bits are those of ``@``. ``x`` and ``out`` must be C-contiguous.
    """
    out.fill(0.0)
    _sparsetools.csr_matvecs(out.shape[0], x.shape[0], x.shape[1], indptr, indices,
                             data, x.ravel(), out.ravel())
    return out


def _step_plan(u, entry_rows: np.ndarray, undefined: np.ndarray | None,
               support: np.ndarray) -> tuple:
    """Plan one step from the ascending half-edges S.

    Returns the rows S' of U that have a nonzero in a column of S, in the
    dtype of S; the rows S' and columns S of U as CSR arrays, with columns
    renumbered 0..|S|-1 in ascending order; and the positions in S of the
    half-edges that ``undefined`` marks, those whose coin is undefined
    (None for none). ``entry_rows`` is the row of each stored entry of U.
    Each row keeps its terms in U's order, so a product with the states
    skips only terms that multiply their zero rows.
    """
    n = u.shape[0]
    column = np.full(n, -1, dtype=u.indices.dtype)
    column[support] = np.arange(len(support))
    keep = column[u.indices] >= 0
    counts = np.bincount(entry_rows[keep], minlength=n)
    support_next = np.flatnonzero(counts).astype(support.dtype, copy=False)
    indptr = np.zeros(len(support_next) + 1, dtype=u.indices.dtype)
    np.cumsum(counts[support_next], out=indptr[1:])
    blocked = None
    if undefined is not None and undefined[support].any():
        blocked = np.flatnonzero(undefined[support])
    return support_next, indptr, column[u.indices[keep]], u.data[keep], blocked


def _restriction(walk: CoinedWalk) -> functools.partial:
    """``_step_plan`` on the walk's U, which leaves out the blocks of the
    coins its family does not define: their half-edges are U's empty
    columns."""
    u = walk._defined_step_matrix()
    n = u.shape[0]
    undefined = np.bincount(u.indices, minlength=n) == 0
    return functools.partial(_step_plan, u, np.repeat(np.arange(n), np.diff(u.indptr)),
                             undefined if undefined.any() else None)


def _density_plan(build, sector_ids: np.ndarray, p: float, support: np.ndarray) -> tuple:
    """``build(S)``, a ``_step_plan``, with the data of conj(U) on the same
    entries and the dephasing factors on S'xS'."""
    plan = build(support)
    return (*plan, plan[3].conj(), _dephasing_block(sector_ids[plan[0]], p))


def _refuse_undefined(walk: CoinedWalk, occupied: np.ndarray) -> None:
    """Raise the lone walker's error, naming the lowest degree, if any of
    the half-edges ``occupied``, whose coin is undefined, holds a nonzero."""
    if occupied.size:
        graph = walk.graph
        degree = graph.degrees[graph.half_edge_vertex[occupied]].min()
        raise walk._undefined_coin(int(degree))


class _StepPlans:
    """``build(S_t)`` for the sets S_0 = ``support``, S_1, ... of a walk,
    S_{t+1} being ``build(S_t)[0]``, in step order on every pass. A pass
    never ends: callers take their steps with ``itertools.islice``. A set
    is known by its bytes, so ``build`` returns each in the dtype of
    ``support``.

    A set equal to one of the last two planned reuses its plan, so a walk
    whose sets alternate or stay put, as on a bipartite graph, plans them
    once. The first pass keeps the plans of the first steps while their
    arrays' bytes fit in ``budget``; every pass plans the later steps
    again and keeps none of them, so memory stays bounded however long the
    walk. With no budget nothing is kept or weighed. A collapse only
    shrinks a state's support, so one plan per step serves every
    trajectory of a run.
    """

    def __init__(self, build, support: np.ndarray, budget: int = 0):
        self.build, self.start = build, support
        self.kept: list = []
        self.room = budget if budget else -1  # negative with none, or once a plan did not fit
        self.recent: dict[bytes, tuple] = {}

    def __iter__(self):
        yield from self.kept
        support = self.kept[-1][0] if self.kept else self.start
        while True:
            key = support.tobytes()
            plan = self.recent.get(key)
            if plan is None:
                plan = self.build(support)
                if self.room >= 0:
                    self.room -= sum(a.nbytes for a in plan if a is not None)
                if len(self.recent) == 2:
                    del self.recent[next(iter(self.recent))]
                self.recent[key] = plan
            if self.room >= 0:
                # while every plan fits, a reused one is kept already
                self.kept.append(plan)
            yield plan
            support = plan[0]


def _room(flat: np.ndarray, size: int, cap: int) -> np.ndarray:
    """``flat`` if it has ``size`` entries, else a new buffer at least twice
    its size and at most ``cap``; a new buffer keeps nothing of the old."""
    if flat.size >= size:
        return flat
    return np.empty(min(max(size, 2 * flat.size), cap), dtype=flat.dtype)


def _density_blocks(rho0: DensityState, spec: DecoherenceSpec, coin: str):
    """Yield ``(support, block)`` after step 1, 2, ... indefinitely.

    The density matrix after the step is ``block`` on the rows and columns
    ``support`` (ascending half-edge indices) and zero elsewhere. The set
    starts at ``rho0.support`` and each step maps it to the rows of U that
    touch it, through the ``_density_plan`` plans of a ``_StepPlans``,
    which keeps none of them; the step then works on the set alone, which
    the full-range step would only multiply by zeros. Every entry comes
    out with the bits of the full-range step: a sparse row product starts
    each sum at +0 and never reaches -0, so the zero terms it skips change
    nothing. A step from a state with a nonzero row on a half-edge whose
    coin is undefined raises instead.

    Each step is exact for any square matrix, Hermitian or not:
    (U rho)^T = rho^T U^T, and conj(U) rho^T U^T = (U rho U†)^T. So a sparse
    row product, one transpose and a second row product give the
    transposed result, which the next step consumes with the roles of U
    and conj(U) swapped. Every other block is therefore held transposed
    and yielded as a transposed view; the dephasing factors are symmetric
    and apply in either layout. Two flat buffers hold the iterate and the
    half step, each reshaped to the set; one grows when a set first needs
    more room than it has. A yielded block is the generator's working
    state: read it before the next resume, never write.
    """
    graph = rho0.graph
    n = graph.half_edge_count
    walk = CoinedWalk(graph, coin)
    build = functools.partial(_density_plan, _restriction(walk),
                              _sector_ids(graph, spec.target), spec.p)
    held_flat = np.array(rho0.block, dtype=np.complex128).ravel()
    spare = np.empty(0, dtype=np.complex128)
    held = held_flat.reshape(rho0.block.shape)  # rho, or rho^T when `transposed`
    transposed = False
    last = rho0.support
    for support, indptr, indices, data, blocked, data_conj, factors in _StepPlans(build, last):
        if blocked is not None:
            # a nonzero row or column of a half-edge U cannot step
            occupied = held[blocked].any(axis=1) | held[:, blocked].any(axis=0)
            _refuse_undefined(walk, last[blocked[occupied]])
        last = support
        w, w_next = len(held), len(support)
        first, second = (data_conj, data) if transposed else (data, data_conj)
        spare = _room(spare, w_next * max(w, w_next), n * n)
        half = _sparse_product(indptr, indices, first, held,
                               spare[:w_next * w].reshape(w_next, w))
        held_flat = _room(held_flat, w * w_next, n * n)  # held is read: its room is free
        turned = held_flat[:w * w_next].reshape(w, w_next)
        np.copyto(turned, half.T)
        held = _sparse_product(indptr, indices, second, turned,
                               spare[:w_next * w_next].reshape(w_next, w_next))
        held *= factors
        held_flat, spare = spare, held_flat
        transposed = not transposed
        yield support, held.T if transposed else held


def evolve_density(rho0: DensityState, spec: DecoherenceSpec, steps: int,
                   coin: str = "default") -> DensityState:
    """Iterate (unitary step, then channel) ``steps`` times; 0 steps return ``rho0``."""
    graph = rho0.graph
    occupied = graph.half_edge_vertex[rho0.support[np.flatnonzero(np.diagonal(rho0.block))]]
    check_line_headroom(graph.kind, graph.num_vertices, occupied, steps)
    for support, block in itertools.islice(_density_blocks(rho0, spec, coin), steps):
        pass
    return DensityState._on_support(graph, support, block.copy()) if steps else rho0


def iter_density_steps(rho0: DensityState, spec: DecoherenceSpec,
                       coin: str = "default"):
    """Yield the density state after step 1, 2, ... indefinitely, each on its own block."""
    for support, block in _density_blocks(rho0, spec, coin):
        yield DensityState._on_support(rho0.graph, support, block.copy())


def _chunk_rows(graph: Graph) -> int:
    """Trajectories stepped together on ``graph``: the rule of ``_CHUNK_BYTES``.
    A row's distribution takes as many bytes as V / 2 complex numbers, and
    its pre-drawn uniforms as many as ``_DRAW_BLOCK`` / 2."""
    width = max(graph.half_edge_count, -(-graph.num_vertices // 2), _DRAW_BLOCK)
    return max(1, _CHUNK_BYTES // (16 * width))


def _collapse_rows(amps: np.ndarray, rows: np.ndarray, draws: np.ndarray,
                   graph: Graph, labels: np.ndarray, target: str) -> np.ndarray:
    """Measure the target register of the listed trajectories, collapsing
    them in place.

    ``amps`` holds the states on a set of ascending half-edges, one row per
    half-edge and one column per trajectory. ``labels`` are the set's
    outcome labels, those the channel dephases by (``_sector_ids``). A
    trajectory's outcome is
    ``searchsorted(cum, draw * cum[-1], side="right")`` over its cumulated
    outcome probabilities; counting the entries not above the threshold is
    the same index. The half-edges outside the set hold zeros, so every sum
    has the bits it has over all H of them. Returns each outcome: the
    measured half-edge's place in the set, or the measured vertex or coin.
    """
    picked = amps[:, rows].T
    weights = np.abs(picked) ** 2
    if target == "both":
        probs = weights
    else:
        count = int(graph.degrees.max()) if target == "coin" else graph.num_vertices
        probs = _row_bincount(_row_labels(labels, count, len(rows)), weights, count)
    cum = np.cumsum(probs, axis=1)
    outcome = (cum <= (draws * cum[:, -1])[:, None]).sum(axis=1)
    if target == "both":
        kept = picked[np.arange(len(rows)), outcome]
        amps[:, rows] = 0.0
        # the phase a lone trajectory keeps, amps[k] / abs(amps[k]) on
        # scalars: abs of a complex scalar is the hypot of its parts, which
        # np.abs on an array misses in the last bit
        amps[outcome, rows] = kept / np.hypot(kept.real, kept.imag)
        return outcome
    norm = np.sqrt(probs[np.arange(len(rows)), outcome])
    amps[:, rows] = (np.where(labels == outcome[:, None], picked, 0.0) / norm[:, None]).T
    return outcome


def _trajectories(walk: CoinedWalk, plans: _StepPlans, steps: int, start: np.ndarray,
                  spec: DecoherenceSpec, seeds, keep_record: bool):
    """Run one measured trajectory per seed for ``steps`` steps, as the
    columns of one array.

    Every trajectory starts as ``start``, the amplitudes on the ascending
    half-edges ``plans.start`` (zero elsewhere), and step t is the sparse
    product with the t-th plan of ``plans``, a ``_StepPlans`` of
    ``_restriction(walk)``. Trajectory r, column r, is that of
    ``default_rng(seeds[r])``. Each step draws one uniform to decide whether
    to measure and, when it fires, one more for the outcome, in that order,
    so a trajectory reads its stream exactly as a lone one would. Returns
    the last set, the final (|set|, len(seeds)) amplitudes held on it and,
    with ``keep_record``, the (len(seeds), steps, 4) measurement records.
    """
    graph = walk.graph
    rows, support = len(seeds), plans.start
    amps = np.repeat(start[:, None], rows, axis=1)
    record = None
    if keep_record:
        record = np.full((rows, steps, 4), NOT_MEASURED, dtype=np.int64)
        record[:, :, 0] = np.arange(1, steps + 1)
        record[:, :, 1] = 0
    streams = RowStreams(seeds, uniform, max(1, min(2 * steps, _DRAW_BLOCK)))
    sector_ids = _sector_ids(graph, spec.target)
    everyone = np.arange(rows)
    for t, (reached, indptr, indices, data, blocked) in enumerate(
            itertools.islice(plans, steps)):
        if blocked is not None:
            _refuse_undefined(walk, support[blocked[amps[blocked].any(axis=1)]])
        amps = _sparse_product(indptr, indices, data, amps,
                               np.empty((len(reached), rows), dtype=np.complex128))
        support = reached
        fired = everyone[streams.next(everyone) < spec.p]
        if fired.size == 0:
            continue
        outcome = _collapse_rows(amps, fired, streams.next(fired), graph,
                                 sector_ids[support], spec.target)
        if keep_record:
            record[fired, t, 1] = 1
            if spec.target == "both":
                outcome = support[outcome]
                vertex = graph.half_edge_vertex[outcome]
                record[fired, t, 2:] = np.column_stack((vertex, outcome - graph.offsets[vertex]))
            else:
                record[fired, t, 2 if spec.target == "position" else 3] = outcome
    return support, amps, record


def evolve_trajectory(state0: PureState, spec: DecoherenceSpec, steps: int,
                      seed: int, coin: str = "default",
                      keep_record: bool = True) -> tuple[PureState, np.ndarray | None]:
    """One measured trajectory: unitary step, then collapse with probability p.

    Returns the final pure state and, when ``keep_record`` is set, an
    integer array with one ``step, measured, position, coin`` row per step
    (-1 marks a register that was not measured). Deterministic per seed;
    it is the ensemble kernel run on a single row. The amplitudes have the
    bits of the walker stepped over all H half-edges by the product with
    ``CoinedWalk.step_matrix()``, and, on a graph of degree-2 vertices with
    a real coin, the values of ``step_amplitudes``; a zero amplitude may be
    +0 where that walker holds -0. Elsewhere they may differ from
    ``step_amplitudes`` in the last bits, as a sum of more than two terms
    or a product with a complex coin may round otherwise there.
    """
    graph = state0.graph
    check_line_headroom(graph.kind, graph.num_vertices, _support(state0), steps)
    walk = CoinedWalk(graph, coin)
    support = np.flatnonzero(state0.amplitudes).astype(np.int32)
    support, held, record = _trajectories(walk, _StepPlans(_restriction(walk), support), steps,
                                          state0.amplitudes[support], spec, [seed], keep_record)
    amps = np.zeros(graph.half_edge_count, dtype=np.complex128)
    amps[support] = held[:, 0]
    return PureState(graph, amps), None if record is None else record[0]


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
    graph = state0.graph
    check_line_headroom(graph.kind, graph.num_vertices, _support(state0), steps)
    walk = CoinedWalk(graph, coin)
    support = np.flatnonzero(state0.amplitudes).astype(np.int32)
    n = graph.num_vertices
    chunk = _chunk_rows(graph)
    plans = _StepPlans(_restriction(walk), support, _PLAN_BYTES if trajectories > chunk else 0)
    start = state0.amplitudes[support]
    total = np.zeros(n)
    total_sq = np.zeros(n)
    first = 0
    while first < trajectories:
        seeds = range(seed + first, seed + min(first + chunk, trajectories))
        first += len(seeds)
        final, amps, _ = _trajectories(walk, plans, steps, start, spec, seeds, False)
        p = _row_bincount(_row_labels(graph.half_edge_vertex[final], n, len(seeds)),
                          np.abs(amps.T) ** 2, n)
        # running sums in trajectory order, the bits a serial loop adds up,
        # each taken in place down the rows of its chunk
        for terms, running in ((p * p, total_sq), (p, total)):
            terms[0] += running
            np.cumsum(terms, axis=0, out=terms)
            running[:] = terms[-1]
    mean = total / trajectories
    var = np.maximum(total_sq / trajectories - mean ** 2, 0.0)
    stderr = np.sqrt(var / trajectories)
    return mean, stderr

