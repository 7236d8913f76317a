"""Discrete-time coined walk engine.

The walker state lives on half-edges, laid out by the half-edge table of
``graphs``: one complex amplitude per (vertex, direction) pair, where
direction c at vertex v is half-edge ``offsets[v] + c`` and points to
``neighbors(v)[c]``.
A step first mixes directions at every vertex with a unitary coin, then
moves each amplitude along its edge. The shift relabels the coin on
arrival so that on a path graph direction 0 keeps travelling towards lower
coordinates and direction 1 towards higher ones; on any graph it is a
permutation of half-edges, so the step operator stays unitary.

``CoinedWalk.iter_steps`` is the one evolution path: it checks the step
count and the line rule and yields the state after every step. ``evolve``
is its last state. It steps a block at a time, each step straight into the
next row of a fresh (rows, H) array of at most 256 rows and 64 KiB (one
row if a row is larger; the cap of the blocks ``stats.mixing_time``
reads), and yields read-only rows, so a write to a state cannot diverge
from the steps already taken after it. Each call makes one stepper, a
step function with scratch of its own (so two live iterators share none),
and the flat ``bincount`` labels of a block, once. A yielded state, a
slotted object, has as ``position_distribution`` its read-only row view of
the block's distributions, which one ``bincount`` over a prefix of those
labels takes for the whole block on the first request, bit for bit the
per-row ``bincount``, and which are listed as row views once then;
``evolve`` takes none. A step that meets an undefined coin
(``UnsupportedDegreeError``) raises at the item its state would have been,
after the states before it, and the iterator never steps past ``steps``
nor more than one block past the last item read.

``CoinedWalk`` compiles the step once per graph. All degree-2 vertices
share one gather table, indexed by output half-edge: the two half-edges
each output reads and the coin entries that weigh them. Every other degree
keeps a block plan: the half-edge block, its shifted target and the coin.
The stepper, the pure walk's step kernel, runs a step as one gather, one
multiply and one add over that table into its scratch (plus a scatter
unless degree 2 covers every half-edge, as on cycles), and a block matmul
per other degree, writing each coin output straight to its shifted
half-edge; ``step_amplitudes`` is one run of a fresh stepper.
``step_matrix`` assembles the same two plans as a sparse matrix U, on
whose rows both decohered routes step (``decoherence``). The tests hold
the two-pass form, a coin toss over every vertex then a shift, built from
per-vertex loops (``ReferenceLayout`` in ``tests/test_half_edge_table.py``),
and check the step against it bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse

from .errors import UnsupportedDegreeError
from .graphs import Graph, check_line_headroom
from .stats import _block_rows

COIN_FAMILIES = ("default", "hadamard", "grover", "dft")

INITIAL_COIN_PRESETS = ("basis0", "symmetric", "uniform")


def hadamard_coin() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def grover_coin(degree: int) -> np.ndarray:
    """Reflection about the uniform direction state, 2/d - delta_ij."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return 2.0 / degree * np.ones((degree, degree)) - np.eye(degree)


def dft_coin(degree: int) -> np.ndarray:
    """Discrete Fourier transform coin; equals the Hadamard coin at degree 2."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    jk = np.outer(np.arange(degree), np.arange(degree))
    return np.exp(2j * np.pi * jk / degree) / np.sqrt(degree)


def coin_matrix(family: str, degree: int) -> np.ndarray:
    """Coin unitary for one vertex of the given degree.

    ``default`` picks the Hadamard coin on degree-2 vertices and the Grover
    coin elsewhere. The Hadamard family is only defined at degree 2.
    """
    if family not in COIN_FAMILIES:
        raise ValueError(f"coin family must be one of {COIN_FAMILIES}, got {family!r}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if family == "default":
        family = "hadamard" if degree == 2 else "grover"
    if family == "hadamard":
        if degree != 2:
            raise UnsupportedDegreeError(
                f"hadamard coin needs degree 2, got degree {degree}")
        return hadamard_coin()
    if family == "grover":
        return grover_coin(degree)
    return dft_coin(degree)


class PureState:
    """Half-edge amplitude vector tied to a graph."""

    __slots__ = ("graph", "amplitudes")

    def __init__(self, graph: Graph, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (graph.half_edge_count,):
            raise ValueError(
                f"amplitudes must have shape ({graph.half_edge_count},), "
                f"got {amplitudes.shape}")
        self.graph = graph
        self.amplitudes = amplitudes

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def position_distribution(self) -> np.ndarray:
        """Probability of finding the walker at each vertex (coin traced out)."""
        weights = np.abs(self.amplitudes) ** 2
        return np.bincount(self.graph.half_edge_vertex, weights=weights,
                           minlength=self.graph.num_vertices)


def initial_state(graph: Graph, vertex: int, coin: str | np.ndarray = "basis0") -> PureState:
    """Walker localized at one vertex with the given coin amplitudes.

    ``coin`` is a preset name or an explicit unit vector of length
    degree(vertex). Presets: ``basis0`` puts all weight on direction 0;
    ``symmetric`` is (|0> + i|1>)/sqrt(2), the degree-2 choice whose walk
    distribution is left-right symmetric; ``uniform`` weights every
    direction equally.
    """
    d = graph.degree(vertex)
    if d == 0:
        raise ValueError(f"vertex {vertex} has degree 0; no coin directions exist")
    if isinstance(coin, str):
        if coin not in INITIAL_COIN_PRESETS:
            raise ValueError(
                f"coin preset must be one of {INITIAL_COIN_PRESETS}, got {coin!r}")
        if coin == "basis0":
            vec = np.zeros(d, dtype=np.complex128)
            vec[0] = 1.0
        elif coin == "symmetric":
            if d != 2:
                raise UnsupportedDegreeError(
                    f"symmetric coin preset needs degree 2, got degree {d}")
            vec = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        else:
            vec = np.full(d, 1.0 / np.sqrt(d), dtype=np.complex128)
    else:
        vec = np.asarray(coin, dtype=np.complex128)
        if vec.shape != (d,):
            raise ValueError(
                f"coin amplitudes must have shape ({d},) at vertex {vertex}, "
                f"got {vec.shape}")
        if not np.isclose(np.linalg.norm(vec), 1.0):
            raise ValueError("coin amplitudes must be a unit vector")
    amps = np.zeros(graph.half_edge_count, dtype=np.complex128)
    off = graph.offsets[vertex]
    amps[off:off + d] = vec
    return PureState(graph, amps)


class CoinedWalk:
    """Precompiled coin and shift maps for repeated stepping on one graph."""

    def __init__(self, graph: Graph, coin: str = "default"):
        self.graph = graph
        self.coin_family = coin

        # half-edge h = (v, c) moves to u = heads[h], arriving in direction
        # deg(u) - 1 - b, where b = reverse[h] - offsets[u] is v's slot at u;
        # a permutation
        heads = graph.heads
        target = graph.offsets[heads] + graph.offsets[heads + 1] - 1 - graph.reverse

        # every degree but 2 keeps a block plan: the (m, d) half-edge block,
        # where the shift sends it and the transposed coin (None for a
        # degree the family does not support, an error only if amplitude
        # ever sits there)
        # degree 2 is one gather table instead, sorted by output half-edge:
        # output dest[k] of n is
        # amps[src[k]] * coef[k] + amps[src[n + k]] * coef[n + k], the first
        # half of src and coef being the terms from direction 0 and the
        # second those from direction 1 (kept flat, as halves of one array:
        # two-row indexing cost more per step than the step's arithmetic on
        # a small graph); dest is None when the table covers every
        # half-edge in order. The two products are added elementwise, not
        # by matmul: BLAS kernels may fuse multiply-adds, leaving a one-ulp
        # residue where opposite-sign products should cancel bit-exactly
        # (the interference zeros)
        self._gather = None
        self._block_plan = []
        for d in np.unique(graph.degrees[graph.degrees > 0]).tolist():
            offs = graph.offsets[:-1][graph.degrees == d]
            idx = offs[:, None] + np.arange(d)[None, :]
            moved = target[idx]
            try:
                coin_t = coin_matrix(coin, d).T.copy()
            except UnsupportedDegreeError:
                coin_t = None
            if coin_t is None or d != 2:
                self._block_plan.append((idx, moved, coin_t))
                continue
            dest = moved.T.ravel()
            order = np.argsort(dest, kind="stable")
            src = np.tile(idx.T, 2)[:, order].ravel()
            coef = np.repeat(coin_t, len(idx), axis=1)[:, order].ravel().astype(np.complex128)
            dest = dest[order]
            if np.array_equal(dest, np.arange(graph.half_edge_count)):
                dest = None
            self._gather = (src, coef, len(order), dest)

    def _undefined_coin(self, degree: int, why: str = " but amplitude occupies such a vertex"):
        """The error for a step that needs a coin the family does not define."""
        return UnsupportedDegreeError(
            f"{self.coin_family} coin undefined for degree {degree}{why}")

    def step_amplitudes(self, amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One step, coin toss then shift: one run of a fresh stepper
        (``_stepper``). The step goes into ``out`` (a fresh array if None),
        which must not overlap ``amps``, and is returned."""
        return self._stepper()(amps, np.empty_like(amps) if out is None else out)

    def _stepper(self):
        """A step function ``step(amps, out)`` with scratch of its own, which
        no other stepper shares: it writes one step of ``amps`` into
        ``out`` (not overlapping ``amps``) and returns ``out``. Degree 2
        multiplies the gather table's direction-0 and direction-1 terms
        into the two halves of the scratch and adds them elementwise; other
        degrees multiply the (m, d) block by the coin."""
        gather, plan = self._gather, self._block_plan
        if gather is not None:
            src, coef, n, dest = gather
            terms = np.empty(2 * n, np.complex128)
            terms0, terms1 = terms[:n], terms[n:]

        def step(amps: np.ndarray, out: np.ndarray) -> np.ndarray:
            if gather is not None:
                np.multiply(amps[src], coef, terms)
                if dest is None:
                    return np.add(terms0, terms1, out)
                np.add(terms0, terms1, terms0)
                out[dest] = terms0
            for idx, moved, coin_t in plan:
                if coin_t is not None:
                    out[moved] = amps[idx] @ coin_t
                else:
                    block = amps[idx]
                    if np.any(block):
                        raise self._undefined_coin(idx.shape[-1])
                    out[moved] = block
            return out
        return step

    def evolve(self, state: PureState, steps: int) -> PureState:
        """The last state of ``iter_steps``; ``state`` itself for zero steps."""
        final = state
        for final in self.iter_steps(state, steps):
            pass
        return final

    def iter_steps(self, state: PureState, steps: int):
        """Yield the state after each of ``steps`` sequential steps.

        The steps are taken a block at a time, each straight into the next
        row of a fresh (rows, H) array of at most 256 rows and 64 KiB (one
        row if a row is larger), never past ``steps``; so at most one block
        is stepped ahead of the last state read. Each call makes its own
        stepper (``_stepper``) and the flat labels of a full block
        (``_row_labels``) once. The states are read-only rows of the block,
        and their ``position_distribution`` is a read-only row view of the
        block's distributions: one ``bincount`` over a prefix of those
        labels takes them for the whole block on the first request, and
        their row views are listed once then, so each later request is a
        list index. A step that raises ``UnsupportedDegreeError`` ends
        the block: the states before it are yielded, then the error is
        raised where its state would have been.
        """
        g = state.graph
        check_line_headroom(g.kind, g.num_vertices, _support(state), steps)
        per_block = _block_rows(16 * g.half_edge_count)
        # bound once: each is looked up per row otherwise
        step, graph, new_row = self._stepper(), self.graph, _BlockRow.__new__
        labels = _row_labels(graph.half_edge_vertex, graph.num_vertices, min(per_block, steps))
        amps = state.amplitudes
        done = 0
        while done < steps:
            rows = np.empty((min(per_block, steps - done), g.half_edge_count), np.complex128)
            error = None
            for filled, out in enumerate(rows):
                try:
                    amps = step(amps, out)
                except UnsupportedDegreeError as exc:
                    error = exc
                    rows = rows[:filled]
                    break
            rows.flags.writeable = False
            block = _StepBlock(graph, rows, labels)
            for k, row in enumerate(rows):
                # unchecked: the step itself has just made the row
                row_state = new_row(_BlockRow)
                row_state.graph, row_state.amplitudes = graph, row
                row_state._block, row_state._row = block, k
                yield row_state
            if error is not None:
                raise error
            done += len(rows)

    def step_matrix(self) -> scipy.sparse.csr_matrix:
        """The unitary for one step as a sparse matrix over half-edges.

        Read from the step's own plans: gather term k is entry
        (dest[k], src[k]) with value coef[k], and block entry
        (moved[r, j], idx[r, i]) is coin_t[i, j]. Zero coin entries are
        left out. A family that leaves some degree's coin undefined has no
        full step operator and raises ``UnsupportedDegreeError``.
        """
        for idx, _, coin_t in self._block_plan:
            if coin_t is None:
                raise self._undefined_coin(idx.shape[1],
                                           "; cannot assemble a full step operator")
        return self._defined_step_matrix()

    def _defined_step_matrix(self) -> scipy.sparse.csr_matrix:
        """``step_matrix`` with the blocks of undefined coins left out. The
        columns of their half-edges are empty, and no other column is: a
        unitary coin has no zero column."""
        n = self.graph.half_edge_count
        rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
        if self._gather is not None:
            src, coef, _, dest = self._gather
            rows.append(np.tile(np.arange(n) if dest is None else dest, 2))
            cols.append(src)
            vals.append(coef)
        for idx, moved, coin_t in self._block_plan:
            if coin_t is None:
                continue
            m, d = idx.shape
            rows.append(np.broadcast_to(moved[:, None, :], (m, d, d)).ravel())
            cols.append(np.broadcast_to(idx[:, :, None], (m, d, d)).ravel())
            vals.append(np.broadcast_to(coin_t, (m, d, d)).ravel())
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        nonzero = vals != 0
        return scipy.sparse.csr_matrix(
            (vals[nonzero], (rows[nonzero], cols[nonzero])),
            shape=(n, n), dtype=np.complex128)


def _row_labels(labels: np.ndarray, count: int, rows: int) -> np.ndarray:
    """Flat labels ``r * count + labels`` for each row r < ``rows``, the
    labels of ``_row_bincount`` for up to ``rows`` rows of weights."""
    return (labels + count * np.arange(rows)[:, None]).ravel()


def _row_bincount(flat_labels: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """``np.bincount(labels, weights[r], minlength=count)`` for every row r,
    as one bincount over a prefix of ``_row_labels(labels, count, rows)``
    (``rows`` at least those of ``weights``): each bin still sums its
    weights in half-edge order, so every row gets its own bincount's bits."""
    rows = weights.shape[0]
    return np.bincount(flat_labels[:weights.size], weights=weights.ravel(),
                       minlength=rows * count).reshape(rows, count)


class _StepBlock:
    """Consecutive states of one walk, the rows of a read-only (rows, H)
    array, whose position distributions are taken together on the first
    request (``_row_bincount`` over the iterator's flat labels)."""

    def __init__(self, graph: Graph, rows: np.ndarray, labels: np.ndarray):
        self.graph = graph
        self.rows = rows
        self.labels = labels

    @functools.cached_property
    def distributions(self) -> list:
        """Each row's distribution, a read-only view into one (rows, V)
        array; listed once, so that a state's request is a list index, not
        an array slice."""
        dist = _row_bincount(self.labels, np.abs(self.rows) ** 2, self.graph.num_vertices)
        dist.flags.writeable = False
        return list(dist)


class _BlockRow(PureState):
    """A state ``iter_steps`` yields: row ``_row`` of ``_block``; slotted,
    as ``PureState`` is, so making one fills four slots and no dict."""

    __slots__ = ("_block", "_row")

    def position_distribution(self) -> np.ndarray:
        """Probability of finding the walker at each vertex (coin traced out),
        a read-only row view of the block's distributions."""
        return self._block.distributions[self._row]


def _support(state: PureState) -> np.ndarray:
    """Vertices where the walker may be found."""
    return np.flatnonzero(state.position_distribution() > 0.0)

