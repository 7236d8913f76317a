"""The half-edge table of ``Graph`` against the per-vertex loops it replaced.

``ReferenceLayout`` builds the layout as ``graphs``, ``coined`` and
``classical`` each built it before the table: neighbor lists and a dict of
direction slots, a loop over that dict for the shift, per-degree vertex
lists for the coin plan, one output half-edge at a time for the degree-2
gather table, and flattened neighbor lists for the sampled walkers. The
table and everything compiled from it must match the reference exactly,
on random edge lists (duplicates, both orientations, isolated vertices)
and on every builder.

``ReferenceLayout`` also holds the two-pass coined step that the fused
step of ``CoinedWalk`` replaced: a coin toss over every vertex, then the
shift. The coined tests check the engine against it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalksim.coined import COIN_FAMILIES, CoinedWalk, coin_matrix
from qwalksim.errors import UnsupportedDegreeError
from qwalksim.graphs import (GlueSpec, Graph, build_cycle, build_glued_trees, build_hypercube,
                             build_line)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def apply_coin(block, coin_t):
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


class ReferenceLayout:
    """The half-edge layout built by per-vertex Python loops."""

    def __init__(self, num_vertices, edges):
        canonical = set()
        for u, v in edges:
            canonical.add((min(u, v), max(u, v)))
        self.edges = tuple(sorted(canonical))
        nbrs = [[] for _ in range(num_vertices)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.neighbors = tuple(tuple(sorted(ns)) for ns in nbrs)
        self.slot = {(v, u): c for v in range(num_vertices)
                     for c, u in enumerate(self.neighbors[v])}
        self.degrees = np.array([len(ns) for ns in self.neighbors], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.degrees)))
        self.half_edge_vertex = np.repeat(np.arange(num_vertices), self.degrees)
        # the sampled walkers' table: every vertex's first slot and the
        # ascending neighbor lists laid end to end
        self.first = np.concatenate(([0], np.cumsum(self.degrees[:-1])))
        self.flat = np.array([u for ns in self.neighbors for u in ns], dtype=np.int64)

        half_edges = len(self.flat)
        self.reverse = np.empty(half_edges, dtype=np.int64)
        self.shift_target = np.empty(half_edges, dtype=np.int64)
        for v in range(num_vertices):
            for c, u in enumerate(self.neighbors[v]):
                back = self.slot[(u, v)]
                self.reverse[self.offsets[v] + c] = self.offsets[u] + back
                self.shift_target[self.offsets[v] + c] = (
                    self.offsets[u] + self.degrees[u] - 1 - back)
        self._plans = {}

    def coin_plan(self, coin):
        by_degree = {}
        for v, d in enumerate(self.degrees.tolist()):
            if d > 0:
                by_degree.setdefault(d, []).append(v)
        plan = []
        for d, vertices in sorted(by_degree.items()):
            offs = np.array([self.offsets[v] for v in vertices])
            idx = offs[:, None] + np.arange(d)[None, :]
            moved = self.shift_target[idx]
            try:
                coin_t = coin_matrix(coin, d).T.copy()
            except UnsupportedDegreeError:
                coin_t = None
            plan.append((idx, moved, coin_t))
        return plan

    def coin_toss(self, amps, coin):
        """Every vertex's coin on its block of half-edges, in place of the
        old amplitudes; a vertex whose degree has no coin must hold none."""
        if coin not in self._plans:
            self._plans[coin] = self.coin_plan(coin)
        out = amps.copy()
        for idx, _, coin_t in self._plans[coin]:
            if coin_t is None:
                if np.any(amps[idx]):
                    raise UnsupportedDegreeError(
                        f"{coin} coin undefined for degree {idx.shape[1]}")
                continue
            out[idx] = apply_coin(amps[idx], coin_t)
        return out

    def shift(self, amps):
        """Every amplitude moved to its shift target."""
        out = np.empty_like(amps)
        out[self.shift_target] = amps
        return out

    def two_pass_step(self, amps, coin):
        return self.shift(self.coin_toss(amps, coin))

    def gather_table(self, coin):
        """The degree-2 table, one output half-edge at a time: the half-edge
        it is shifted from takes direction j of vertex v, so it reads both
        of v's half-edges weighted by row j of v's coin."""
        rows = {}
        for v, d in enumerate(self.degrees.tolist()):
            if d == 2:
                c = coin_matrix(coin, 2)
                for j in range(2):
                    out = self.shift_target[self.offsets[v] + j]
                    rows[int(out)] = (self.offsets[v], self.offsets[v] + 1, c[j, 0], c[j, 1])
        if not rows:
            return None
        dest = np.array(sorted(rows))
        src0, src1, coef0, coef1 = (np.array(col) for col in zip(*(rows[h] for h in dest)))
        src = np.concatenate((src0, src1))
        coef = np.concatenate((coef0, coef1)).astype(np.complex128)
        if np.array_equal(dest, np.arange(len(self.flat))):
            dest = None
        return src, coef, len(src0), dest

    def step_matrix(self, coin):
        """Dense U = S·C, one coin block per vertex copied into place."""
        n = len(self.flat)
        u = np.zeros((n, n), dtype=np.complex128)
        for v, d in enumerate(self.degrees.tolist()):
            if d > 0:
                rows = self.offsets[v] + np.arange(d)
                u[self.shift_target[rows][:, None], rows[None, :]] = coin_matrix(coin, d)
        return u


def assert_matches_reference(g, ref, coin):
    assert g.edges == ref.edges
    assert all(type(u) is int and type(v) is int for u, v in g.edges)
    for v in range(g.num_vertices):
        assert np.array_equal(g.neighbors(v), ref.neighbors[v])
        assert g.degree(v) == len(ref.neighbors[v])
    assert g.half_edge_vertex.dtype == np.int64
    assert np.array_equal(g.half_edge_vertex, ref.half_edge_vertex)
    assert np.array_equal(g.degrees, ref.degrees)
    assert np.array_equal(g.offsets, ref.offsets)
    assert np.array_equal(g.offsets[:-1], ref.first)
    assert np.array_equal(g.heads, ref.flat)
    assert np.array_equal(g.reverse, ref.reverse)
    assert np.array_equal(g.adjacency_matrix(), adjacency_loop(g.num_vertices, ref.edges))

    walk = CoinedWalk(g, coin)
    # the gather table takes every degree-2 vertex whose coin is defined,
    # the block plan every other degree
    want_plan = [entry for entry in ref.coin_plan(coin)
                 if entry[2] is None or entry[0].shape[1] != 2]
    assert len(walk._block_plan) == len(want_plan)
    for (idx, moved, coin_t), want in zip(walk._block_plan, want_plan):
        assert np.array_equal(idx, want[0]) and np.array_equal(moved, want[1])
        assert (coin_t is None) == (want[2] is None)
        assert coin_t is None or np.array_equal(coin_t, want[2])
    want_table = ref.gather_table(coin)
    assert (walk._gather is None) == (want_table is None)
    if want_table is not None:
        src, coef, n, dest = walk._gather
        assert np.array_equal(src, want_table[0]) and src.dtype == np.int64
        assert same_bits(coef, want_table[1])
        assert n == want_table[2]
        assert (dest is None) == (want_table[3] is None)
        assert dest is None or np.array_equal(dest, want_table[3])
    try:
        want_u = ref.step_matrix(coin)
    except UnsupportedDegreeError:
        with pytest.raises(UnsupportedDegreeError):
            walk.step_matrix()
    else:
        assert np.array_equal(walk.step_matrix().toarray(), want_u)


def adjacency_loop(num_vertices, edges):
    a = np.zeros((num_vertices, num_vertices))
    for u, v in edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


@st.composite
def edge_lists(draw):
    """A vertex count and an edge list with repeats, both orientations and isolated vertices."""
    n = draw(st.integers(1, 10))
    if n == 1:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    base = draw(st.lists(pair, max_size=25))
    if not base:
        return n, base
    repeats = draw(st.lists(st.sampled_from(base), max_size=6))
    flipped = [(v, u) for u, v in draw(st.lists(st.sampled_from(base), max_size=6))]
    return n, draw(st.permutations(base + repeats + flipped))


@settings(max_examples=200, deadline=None)
@given(graph=edge_lists(), coin=st.sampled_from(COIN_FAMILIES))
def test_table_matches_reference_on_random_edge_lists(graph, coin):
    n, edges = graph
    assert_matches_reference(Graph(n, edges), ReferenceLayout(n, edges), coin)


BUILDERS = {
    "line(1)": lambda: build_line(1),
    "line(9)": lambda: build_line(9),
    "cycle(3)": lambda: build_cycle(3),
    "cycle(8)": lambda: build_cycle(8),
    "hypercube(1)": lambda: build_hypercube(1),
    "hypercube(2)": lambda: build_hypercube(2),
    "hypercube(4)": lambda: build_hypercube(4),
    "glued-symmetric(1)": lambda: build_glued_trees(1, GlueSpec("symmetric")),
    "glued-symmetric(3)": lambda: build_glued_trees(3, GlueSpec("symmetric")),
    "glued-random(1)": lambda: build_glued_trees(1, GlueSpec("random-cycle", seed=4)),
    "glued-random(3)": lambda: build_glued_trees(3, GlueSpec("random-cycle", seed=11)),
}


@pytest.mark.parametrize("coin", COIN_FAMILIES)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_table_matches_reference_on_builders(name, coin):
    g = BUILDERS[name]()
    assert_matches_reference(g, ReferenceLayout(g.num_vertices, g.edges), coin)
