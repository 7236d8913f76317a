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
is its last state, and the module-level ``step`` is ``evolve`` for one step.

``CoinedWalk`` compiles one coin plan per graph, per degree the half-edge
block, its shifted target and the coin. ``step_amplitudes`` (one walker)
and ``step_rows`` (a batch) both read it and write each coin output
straight to its shifted half-edge, in one pass; the result is
bit-identical to ``shift(coin_toss(amps))``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .errors import UnsupportedDegreeError
from .graphs import Graph, check_line_headroom

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

    def amplitude(self, vertex: int, direction: int) -> complex:
        return complex(self.amplitudes[self.graph.half_edge(vertex, direction)])

    def position_distribution(self) -> np.ndarray:
        """Probability of finding the walker at each vertex (coin traced out)."""
        weights = np.abs(self.amplitudes) ** 2
        return np.bincount(self.graph.half_edge_vertex, weights=weights,
                           minlength=self.graph.num_vertices)

    def copy(self) -> "PureState":
        return PureState(self.graph, self.amplitudes.copy())


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
    off = graph.coin_offset(vertex)
    amps[off:off + d] = vec
    return PureState(graph, amps)


def _apply_coin(block: np.ndarray, coin_t: np.ndarray) -> np.ndarray:
    """Right-multiply a (m, d) amplitude block by a transposed coin.

    Degree 2 is expanded elementwise instead of using matmul: BLAS kernels
    may fuse multiply-adds, leaving a one-ulp residue where opposite-sign
    products should cancel bit-exactly (the interference zeros).
    """
    if coin_t.shape[0] == 2:
        b0 = block[:, 0]
        b1 = block[:, 1]
        out = np.empty_like(block)
        out[:, 0] = b0 * coin_t[0, 0] + b1 * coin_t[1, 0]
        out[:, 1] = b0 * coin_t[0, 1] + b1 * coin_t[1, 1]
        return out
    return block @ coin_t


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
        self._shift_target = target
        self._shift_source = np.empty_like(target)
        self._shift_source[target] = np.arange(graph.half_edge_count)

        # one entry per degree, read by every step method: the (m, d)
        # half-edge block, where the shift sends it, the transposed coin
        # (None for a degree the family does not support, an error only if
        # amplitude ever sits there) and, at degree 2, the four contiguous
        # columns of block and target with the coin entries as 0-d complex
        # arrays, which multiply like the scalars but with less overhead
        self._coin_plan: list[tuple] = []
        for d in np.unique(graph.degrees[graph.degrees > 0]).tolist():
            offs = graph.offsets[:-1][graph.degrees == d]
            idx = offs[:, None] + np.arange(d)[None, :]
            moved = target[idx]
            try:
                coin_t = coin_matrix(coin, d).T.copy()
            except UnsupportedDegreeError:
                coin_t = None
            pair = None
            if coin_t is not None and d == 2:
                pair = (idx[:, 0].copy(), idx[:, 1].copy(), moved[:, 0].copy(),
                        moved[:, 1].copy(),
                        *(np.array(c, dtype=np.complex128) for c in coin_t.ravel()))
            self._coin_plan.append((idx, moved, coin_t, pair))

    def _undefined_coin(self, idx: np.ndarray) -> UnsupportedDegreeError:
        return UnsupportedDegreeError(
            f"{self.coin_family} coin undefined for degree "
            f"{idx.shape[1]} but amplitude occupies such a vertex")

    def coin_toss(self, amps: np.ndarray) -> np.ndarray:
        out = amps.copy()
        for idx, _, coin_t, _ in self._coin_plan:
            if coin_t is None:
                if np.any(amps[idx]):
                    raise self._undefined_coin(idx)
                continue
            out[idx] = _apply_coin(amps[idx], coin_t)
        return out

    def shift(self, amps: np.ndarray) -> np.ndarray:
        return amps[self._shift_source]

    def step_amplitudes(self, amps: np.ndarray) -> np.ndarray:
        """One step, coin toss then shift, bit-identical to
        ``shift(coin_toss(amps))``: each coin output is written straight to
        its shifted half-edge. Degree 2 keeps ``_apply_coin``'s elementwise
        form; other degrees multiply the (m, d) block by the coin."""
        out = np.empty_like(amps)
        for idx, moved, coin_t, pair in self._coin_plan:
            if pair is not None:
                i0, i1, m0, m1, c00, c01, c10, c11 = pair
                b0, b1 = amps[i0], amps[i1]
                out[m0] = b0 * c00 + b1 * c10
                out[m1] = b0 * c01 + b1 * c11
            elif coin_t is not None:
                out[moved] = amps[idx] @ coin_t
            else:
                block = amps[idx]
                if np.any(block):
                    raise self._undefined_coin(idx)
                out[moved] = block
        return out

    def step_rows(self, amps: np.ndarray) -> np.ndarray:
        """One step of every row of a (rows, H) batch of independent walkers.

        Row r comes out bit-identical to ``step_amplitudes(amps[r])``: the
        same plan and arithmetic on whole columns, where a stacked matmul
        multiplies each row's (m, d) block on its own.
        """
        out = np.empty_like(amps)
        for idx, moved, coin_t, pair in self._coin_plan:
            if pair is not None:
                i0, i1, m0, m1, c00, c01, c10, c11 = pair
                b0, b1 = amps[:, i0], amps[:, i1]
                out[:, m0] = b0 * c00 + b1 * c10
                out[:, m1] = b0 * c01 + b1 * c11
            elif coin_t is not None:
                out[:, moved] = amps[:, idx] @ coin_t
            else:
                block = amps[:, idx]
                if np.any(block):
                    raise self._undefined_coin(idx)
                out[:, moved] = block
        return out

    def inverse_step_amplitudes(self, amps: np.ndarray) -> np.ndarray:
        out = amps[self._shift_target]
        undone = out.copy()
        for idx, _, coin_t, _ in self._coin_plan:
            if coin_t is None:
                if np.any(out[idx]):
                    raise self._undefined_coin(idx)
                continue
            undone[idx] = _apply_coin(out[idx], coin_t.conj().T)
        return undone

    def evolve(self, state: PureState, steps: int) -> PureState:
        """The last state of ``iter_steps``; ``state`` itself for zero steps."""
        final = state
        for final in self.iter_steps(state, steps):
            pass
        return final

    def iter_steps(self, state: PureState, steps: int):
        """Yield the state after each of ``steps`` sequential steps."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        g = state.graph
        check_line_headroom(g.kind, g.num_vertices, _support(state), steps)
        amps = state.amplitudes
        for _ in range(steps):
            amps = self.step_amplitudes(amps)
            yield PureState(self.graph, amps)

    def step_matrix(self) -> scipy.sparse.csr_matrix:
        """The unitary for one step as a sparse matrix over half-edges.

        Entry (idx[r, i], idx[r, j]) of the block-diagonal coin is
        coin[i, j]; the shift then moves row s to row ``target[s]``.
        """
        n = self.graph.half_edge_count
        rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
        for idx, _, coin_t, _ in self._coin_plan:
            if coin_t is None:
                raise UnsupportedDegreeError(
                    f"{self.coin_family} coin undefined for degree "
                    f"{idx.shape[1]}; cannot assemble a full step operator")
            m, d = idx.shape
            rows.append(np.broadcast_to(idx[:, :, None], (m, d, d)).ravel())
            cols.append(np.broadcast_to(idx[:, None, :], (m, d, d)).ravel())
            vals.append(np.broadcast_to(coin_t.T, (m, d, d)).ravel())
        rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
        nonzero = vals != 0
        return scipy.sparse.csr_matrix(
            (vals[nonzero], (self._shift_target[rows[nonzero]], cols[nonzero])),
            shape=(n, n), dtype=np.complex128)


def _support(state: PureState) -> np.ndarray:
    """Vertices where the walker may be found."""
    return np.flatnonzero(state.position_distribution() > 0.0)


def coin_toss(state: PureState, coin: str = "default") -> PureState:
    """Apply the per-vertex coin unitary without moving the walker."""
    return PureState(state.graph, CoinedWalk(state.graph, coin).coin_toss(state.amplitudes))


def shift(state: PureState) -> PureState:
    """Move every amplitude along its edge, relabelling the coin on arrival."""
    return PureState(state.graph, CoinedWalk(state.graph).shift(state.amplitudes))


def step(state: PureState, coin: str = "default") -> PureState:
    """One walk step: coin toss, then shift."""
    return evolve(state, 1, coin)


def evolve(state: PureState, steps: int, coin: str = "default") -> PureState:
    """Run ``steps`` walk steps and return the final state."""
    return CoinedWalk(state.graph, coin).evolve(state, steps)
