"""Coined walk engine: coins, shift, evolution, exact small-step amplitudes."""

import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalksim import coined, stats
from qwalksim.coined import (COIN_FAMILIES, CoinedWalk, PureState, coin_matrix, dft_coin,
                             grover_coin, hadamard_coin, initial_state)
from qwalksim.errors import BoundaryOverflowError, UnsupportedDegreeError
from qwalksim.graphs import (GlueSpec, Graph, build_cycle, build_glued_trees, build_hypercube,
                             build_line)

from test_half_edge_table import ReferenceLayout, same_bits

R2 = np.sqrt(2.0)
R8 = np.sqrt(8.0)


def centered_line(steps, pad=0):
    # pad > 0 keeps every reached site interior (two coin directions)
    g = build_line(2 * (steps + pad) + 1)
    return g, g.params["origin"]


def amp(state, x, c):
    g = state.graph
    v = int(np.flatnonzero(g.coordinates == x)[0])
    return complex(state.amplitudes[g.offsets[v] + c])


def reference(g):
    """The two-pass coin toss and shift, built by per-vertex loops."""
    return ReferenceLayout(g.num_vertices, g.edges)


# --- coin matrices -------------------------------------------------------

def test_hadamard_matrix():
    h = hadamard_coin()
    assert np.allclose(h, [[1 / R2, 1 / R2], [1 / R2, -1 / R2]], atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_grover_entries(d):
    g = grover_coin(d)
    assert np.allclose(g, 2.0 / d - np.eye(d), atol=1e-15)


def test_dft_two_equals_hadamard():
    assert np.allclose(dft_coin(2), hadamard_coin(), atol=1e-12)


@pytest.mark.parametrize("family,d", [("hadamard", 2), ("grover", 3),
                                      ("grover", 8), ("dft", 3), ("dft", 5),
                                      ("default", 2), ("default", 3)])
def test_coins_unitary(family, d):
    u = coin_matrix(family, d)
    assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


def test_default_coin_dispatch():
    assert np.allclose(coin_matrix("default", 2), hadamard_coin())
    assert np.allclose(coin_matrix("default", 3), grover_coin(3))


def test_hadamard_rejects_other_degrees():
    with pytest.raises(UnsupportedDegreeError):
        coin_matrix("hadamard", 3)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        coin_matrix("bent", 2)
    for make in (grover_coin, dft_coin, lambda d: coin_matrix("grover", d)):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            make(0)


# --- initial states ------------------------------------------------------

def test_initial_state_basis0():
    g, origin = centered_line(2)
    s = initial_state(g, origin, (1.0, 0.0))
    assert amp(s, 0, 0) == 1.0
    assert s.norm() == pytest.approx(1.0, abs=1e-12)


def test_initial_state_symmetric_preset():
    g, origin = centered_line(2)
    s = initial_state(g, origin, "symmetric")
    assert amp(s, 0, 0) == pytest.approx(1 / R2, abs=1e-12)
    assert amp(s, 0, 1) == pytest.approx(1j / R2, abs=1e-12)


def test_initial_state_rejects_unnormalized():
    g, origin = centered_line(2)
    with pytest.raises(ValueError):
        initial_state(g, origin, (1.0, 1.0))


def test_initial_state_rejects_wrong_length():
    g, origin = centered_line(2)
    with pytest.raises(ValueError):
        initial_state(g, origin, (1.0,))
    with pytest.raises(ValueError, match="amplitudes must have shape"):
        PureState(g, np.zeros(g.half_edge_count - 1))
    with pytest.raises(ValueError, match="degree 0"):
        initial_state(Graph(3, [(0, 1)]), 2)


def test_initial_state_rejects_bad_preset():
    g, origin = centered_line(2)
    with pytest.raises(ValueError):
        initial_state(g, origin, "sideways")


# --- coin toss and shift -------------------------------------------------
# The two-pass reference, first against hand-computed amplitudes, then the
# engine's step against the reference.

def test_coin_toss_on_basis_states():
    g, origin = centered_line(2)
    ref = reference(g)
    tossed = PureState(g, ref.coin_toss(initial_state(g, origin, (1.0, 0.0)).amplitudes,
                                        "hadamard"))
    assert amp(tossed, 0, 0) == pytest.approx(1 / R2, abs=1e-15)
    assert amp(tossed, 0, 1) == pytest.approx(1 / R2, abs=1e-15)
    tossed = PureState(g, ref.coin_toss(initial_state(g, origin, (0.0, 1.0)).amplitudes,
                                        "hadamard"))
    assert amp(tossed, 0, 0) == pytest.approx(1 / R2, abs=1e-15)
    assert amp(tossed, 0, 1) == pytest.approx(-1 / R2, abs=1e-15)


def test_coin_toss_twice_is_identity():
    g, origin = centered_line(3)
    s = initial_state(g, origin, "symmetric")
    ref = reference(g)
    twice = ref.coin_toss(ref.coin_toss(s.amplitudes, "hadamard"), "hadamard")
    assert np.allclose(twice, s.amplitudes, atol=1e-14)


def test_shift_moves_basis_states():
    g, origin = centered_line(2)
    ref = reference(g)
    moved = PureState(g, ref.shift(initial_state(g, origin, (1.0, 0.0)).amplitudes))
    assert amp(moved, -1, 0) == pytest.approx(1.0, abs=1e-15)
    moved = PureState(g, ref.shift(initial_state(g, origin, (0.0, 1.0)).amplitudes))
    assert amp(moved, 1, 1) == pytest.approx(1.0, abs=1e-15)


def test_shift_of_balanced_state():
    g, origin = centered_line(2)
    ref = reference(g)
    tossed = ref.coin_toss(initial_state(g, origin, (1.0, 0.0)).amplitudes, "hadamard")
    moved = PureState(g, ref.shift(tossed))
    assert amp(moved, -1, 0) == pytest.approx(1 / R2, abs=1e-15)
    assert amp(moved, 1, 1) == pytest.approx(1 / R2, abs=1e-15)


def test_step_is_shift_after_coin_toss():
    g, origin = centered_line(3)
    s = initial_state(g, origin, "symmetric")
    walk = CoinedWalk(g, "hadamard")
    assert np.allclose(walk.evolve(s, 1).amplitudes,
                       reference(g).two_pass_step(s.amplitudes, "hadamard"), atol=1e-15)


def test_shift_is_a_permutation_everywhere():
    graphs = [build_line(9), build_cycle(6),
              build_glued_trees(2, GlueSpec("symmetric")),
              build_glued_trees(2, GlueSpec("random-cycle", seed=4))]
    for g in graphs:
        # the step's outputs, from the gather table and from every block,
        # reach each half-edge once
        walk = CoinedWalk(g)
        _, _, n, dest = walk._gather
        reached = [np.arange(n) if dest is None else dest]
        reached += [moved.ravel() for _, moved, _ in walk._block_plan]
        assert sorted(np.concatenate(reached)) == list(range(g.half_edge_count))


# --- exact three-step trace ---------------------------------------------
# Hand-derived by applying the degree-2 coin toss and the conditional shift
# to |0,0>. The step-2 intermediate has a minus sign on |2,1>, so linearity
# forces the final x=+1 component negative and x=+3 positive.

EXPECTED_TRACE = {
    1: {(-1, 0): 1 / R2, (1, 1): 1 / R2},
    2: {(-2, 0): 0.5, (0, 0): 0.5, (0, 1): 0.5, (2, 1): -0.5},
    3: {(-3, 0): 1 / R8, (-1, 0): 2 / R8, (-1, 1): 1 / R8,
        (1, 0): -1 / R8, (3, 1): 1 / R8},
}


def nonzero_table(state, tol=1e-14):
    g = state.graph
    table = {}
    for v in range(g.num_vertices):
        for c in range(g.degree(v)):
            a = complex(state.amplitudes[g.offsets[v] + c])
            if abs(a) > tol:
                table[(int(g.coordinates[v]), c)] = a
    return table


def test_three_step_trace_exact():
    # padded so x = +-3 keep both coin slots (endpoints would only have one)
    g, origin = centered_line(3, pad=1)
    s = initial_state(g, origin, (1.0, 0.0))
    for t, state in enumerate(CoinedWalk(g, "hadamard").iter_steps(s, 3), start=1):
        got = nonzero_table(state)
        expected = EXPECTED_TRACE[t]
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=1e-12)


def test_three_step_distribution():
    g, origin = centered_line(3)
    final = CoinedWalk(g, "hadamard").evolve(initial_state(g, origin, (1.0, 0.0)), 3)
    p = final.position_distribution()
    by_x = {int(g.coordinates[v]): p[v] for v in range(g.num_vertices)}
    assert by_x[-3] == pytest.approx(1 / 8, abs=1e-12)
    assert by_x[-1] == pytest.approx(5 / 8, abs=1e-12)
    assert by_x[1] == pytest.approx(1 / 8, abs=1e-12)
    assert by_x[3] == pytest.approx(1 / 8, abs=1e-12)


def test_destructive_interference_at_origin():
    # the third coin toss cancels the origin's coin-1 component exactly and
    # doubles the coin-0 one before the shift disperses them
    g, origin = centered_line(3)
    s = initial_state(g, origin, (1.0, 0.0))
    walk = CoinedWalk(g, "hadamard")
    two = walk.evolve(s, 2)
    tossed = PureState(g, reference(g).coin_toss(two.amplitudes, "hadamard"))
    assert amp(tossed, 0, 1) == 0.0
    assert amp(tossed, 0, 0) == pytest.approx(2 / R8, abs=1e-15)
    three = walk.evolve(s, 3)
    assert amp(three, 0, 1) == 0.0


def test_zero_steps_identity():
    g, origin = centered_line(2)
    s = initial_state(g, origin, "symmetric")
    assert np.array_equal(CoinedWalk(g).evolve(s, 0).amplitudes, s.amplitudes)


# --- global properties ---------------------------------------------------

def test_parity_support():
    g, origin = centered_line(10)
    s = initial_state(g, origin, (1.0, 0.0))
    walk = CoinedWalk(g)
    for t, state in enumerate(walk.iter_steps(s, 10), start=1):
        occupied = np.flatnonzero(state.position_distribution() > 0)
        xs = g.coordinates[occupied].astype(int)
        assert np.all((xs - t) % 2 == 0)


def test_unitarity_long_run():
    g = build_cycle(15)
    s = initial_state(g, 0, (1.0, 0.0))
    final = CoinedWalk(g).evolve(s, 1000)
    assert abs(final.norm() - 1.0) < 1e-9


def test_reversibility():
    g = build_cycle(12)
    s = initial_state(g, 0, "symmetric")
    walk = CoinedWalk(g)
    inverse = walk.step_matrix().conj().T
    amps = walk.evolve(s, 40).amplitudes
    for _ in range(40):
        amps = inverse @ amps
    assert np.max(np.abs(amps - s.amplitudes)) < 1e-9


def test_spreading_grows_linearly():
    sigmas = {}
    for t in (100, 200):
        g, origin = centered_line(t)
        final = CoinedWalk(g).evolve(initial_state(g, origin, (1.0, 0.0)), t)
        p = final.position_distribution()
        sigmas[t] = np.sqrt(np.sum(p * g.coordinates ** 2))
    assert 1.9 <= sigmas[200] / sigmas[100] <= 2.1


def test_boundary_overflow_refused():
    g = build_line(5)
    s = initial_state(g, g.params["origin"], (1.0, 0.0))
    walk = CoinedWalk(g)
    assert walk.evolve(s, 2).norm() == pytest.approx(1.0)
    with pytest.raises(BoundaryOverflowError):
        walk.evolve(s, 3)


def test_boundary_check_counts_from_current_support():
    g = build_line(9)
    s = initial_state(g, g.params["origin"], (1.0, 0.0))
    walk = CoinedWalk(g)
    after_two = walk.evolve(s, 2)
    with pytest.raises(BoundaryOverflowError):
        walk.evolve(after_two, 3)


def test_hadamard_on_occupied_high_degree_vertex_rejected():
    g = build_glued_trees(2, GlueSpec("symmetric"))
    s = initial_state(g, 0, (1.0, 0.0))
    walk = CoinedWalk(g, "hadamard")
    # the root has degree 2, so one step is fine; the next reaches
    # degree-3 vertices where the coin is undefined
    one = walk.evolve(s, 1)
    with pytest.raises(UnsupportedDegreeError):
        walk.evolve(one, 1)


def test_grover_walk_on_glued_trees_conserves_norm():
    g = build_glued_trees(3, GlueSpec("random-cycle", seed=8))
    s = initial_state(g, 0, "uniform")
    final = CoinedWalk(g, "grover").evolve(s, 50)
    assert abs(final.norm() - 1.0) < 1e-10


def test_step_matrix_matches_stepping_and_is_unitary():
    g = build_cycle(7)
    walk = CoinedWalk(g)
    u = walk.step_matrix().toarray()
    assert np.max(np.abs(u.conj().T @ u - np.eye(g.half_edge_count))) < 1e-12
    s = initial_state(g, 2, "symmetric")
    assert np.allclose(u @ s.amplitudes, walk.step_amplitudes(s.amplitudes),
                       atol=1e-13)


@st.composite
def builder_graphs(draw):
    kind = draw(st.sampled_from(["line", "cycle", "hypercube", "glued-symmetric",
                                 "glued-random-cycle"]))
    if kind == "line":
        return build_line(2 * draw(st.integers(1, 12)) + 1)
    if kind == "cycle":
        return build_cycle(draw(st.integers(3, 24)))
    if kind == "hypercube":
        return build_hypercube(draw(st.integers(1, 5)))
    depth = draw(st.integers(1, 4))
    if kind == "glued-symmetric":
        return build_glued_trees(depth, GlueSpec("symmetric"))
    return build_glued_trees(depth, GlueSpec("random-cycle", draw(st.integers(0, 2 ** 32 - 1))))


@settings(max_examples=150, deadline=None)
@given(g=builder_graphs(), family=st.sampled_from(COIN_FAMILIES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_step_matrix_is_unitary_and_is_the_step(g, family, seed):
    walk = CoinedWalk(g, family)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=g.half_edge_count) + 1j * rng.normal(size=g.half_edge_count)
    if family == "hadamard" and np.any(g.degrees != 2):
        # every builder graph has a vertex of degree 1 or 3+ except cycles
        # and the square
        with pytest.raises(UnsupportedDegreeError):
            walk.step_matrix()
        # the decohered routes step on U without the undefined coins'
        # blocks: their half-edges are its only empty columns, and it is
        # the step of a state that holds nothing there
        u = walk._defined_step_matrix()
        undefined = undefined_coin_half_edges(g, family)
        assert np.array_equal(np.flatnonzero(np.diff(u.tocsc().indptr) == 0), undefined)
        a[undefined] = 0.0
        assert np.max(np.abs(u @ a - walk.step_amplitudes(a))) <= 1e-12
        return
    u = walk.step_matrix()
    dense = u.toarray()
    assert np.linalg.norm(dense.conj().T @ dense - np.eye(g.half_edge_count)) <= 1e-12
    assert np.max(np.abs(u @ a - walk.step_amplitudes(a))) <= 1e-12


def loop_step_matrix(g, family):
    # reference: one coin block per vertex placed by a Python loop, then the
    # shift as a permutation matrix; entries are copied, never summed
    n = g.half_edge_count
    coin = scipy.sparse.lil_matrix((n, n), dtype=np.complex128)
    for v in range(g.num_vertices):
        d = g.degree(v)
        if d:
            rows = [g.offsets[v] + c for c in range(d)]
            coin[np.ix_(rows, rows)] = coin_matrix(family, d)
    target = reference(g).shift_target
    shift_m = scipy.sparse.csr_matrix(
        (np.ones(n), (target, np.arange(n))), shape=(n, n), dtype=np.complex128)
    return (shift_m @ coin.tocsr()).toarray()


@pytest.mark.parametrize("family", COIN_FAMILIES)
@pytest.mark.parametrize("make_graph", [
    lambda: build_line(9), lambda: build_cycle(6), lambda: build_hypercube(2),
    lambda: build_hypercube(4), lambda: build_glued_trees(3, GlueSpec("symmetric")),
    lambda: build_glued_trees(3, GlueSpec("random-cycle", seed=2))])
def test_step_matrix_equals_loop_reference(make_graph, family):
    g = make_graph()
    walk = CoinedWalk(g, family)
    try:
        want = loop_step_matrix(g, family)
    except UnsupportedDegreeError:
        with pytest.raises(UnsupportedDegreeError):
            walk.step_matrix()
        return
    u = walk.step_matrix()
    assert np.array_equal(u.toarray(), want)
    assert u.nnz == np.count_nonzero(want)
    # the density step's bits follow the CSR term order: canonical, as
    # scipy builds it from the dense reference
    canonical = scipy.sparse.csr_matrix(want)
    assert u.has_sorted_indices
    for got, expected in ((u.indptr, canonical.indptr), (u.indices, canonical.indices),
                          (u.data, canonical.data)):
        assert same_bits(got, expected)
    assert np.max(np.abs(u.conj().T @ u - np.eye(g.half_edge_count))) < 1e-12


# --- fused step against coin toss then shift ----------------------------
# ``step_amplitudes`` writes each coin output straight to its shifted
# half-edge; ``ReferenceLayout.two_pass_step`` is the two-pass form it
# replaced, built from the reference's own coin plan and shift target, and
# must agree with it bit for bit, signed zeros included.

def star_with_tail():
    # degrees 3, 2, 1, 1, 2, 1 and one isolated vertex
    return Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5)])


FUSED_GRAPHS = {
    "line": lambda: build_line(9),
    "cycle": lambda: build_cycle(7),
    "hypercube2": lambda: build_hypercube(2),
    "hypercube3": lambda: build_hypercube(3),
    "glued-symmetric": lambda: build_glued_trees(3, GlueSpec("symmetric")),
    "glued-random-cycle": lambda: build_glued_trees(3, GlueSpec("random-cycle", seed=2)),
    "star": star_with_tail,
}


def undefined_coin_half_edges(g, family):
    # only the Hadamard family leaves a degree without a coin
    if family != "hadamard":
        return np.empty(0, np.int64)
    return np.flatnonzero(np.array([g.degree(v) for v in g.half_edge_vertex]) != 2)


@pytest.mark.parametrize("name", sorted(FUSED_GRAPHS))
@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_step_equals_coin_toss_then_shift(name, family):
    g = FUSED_GRAPHS[name]()
    walk = CoinedWalk(g, family)
    ref = reference(g)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=g.half_edge_count) + 1j * rng.normal(size=g.half_edge_count)
    undefined = undefined_coin_half_edges(g, family)
    if undefined.size:
        # amplitude on a vertex whose coin is undefined raises in both forms
        with pytest.raises(UnsupportedDegreeError):
            ref.two_pass_step(amps, family)
        with pytest.raises(UnsupportedDegreeError):
            walk.step_amplitudes(amps)
        # zeros there pass, and keep their sign
        amps[undefined] = complex(-0.0, -0.0)
    want = amps
    for _ in range(4):
        want, got = ref.two_pass_step(want, family), walk.step_amplitudes(want)
        assert same_bits(got, want)
        if undefined.size:
            # the step may carry amplitude onto an undefined vertex
            break


def test_step_equals_coin_toss_then_shift_over_a_long_run():
    g = build_cycle(16)
    walk = CoinedWalk(g)
    ref = reference(g)
    rng = np.random.default_rng(4)
    want = rng.normal(size=g.half_edge_count) + 1j * rng.normal(size=g.half_edge_count)
    got = want
    for _ in range(10 ** 4):
        want, got = ref.two_pass_step(want, "default"), walk.step_amplitudes(got)
        assert same_bits(got, want)


def random_amplitudes(rng, shape):
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # signed zeros among the values, in either part
    amps.real[rng.random(shape) < 0.2] = -0.0
    amps.imag[rng.random(shape) < 0.2] = 0.0
    return amps


@settings(max_examples=200, deadline=None)
@given(g=builder_graphs(), family=st.sampled_from(COIN_FAMILIES),
       seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 4))
def test_step_is_the_two_pass_step_on_every_builder(g, family, seed, rows):
    # the lone walker's step of `rows` states, each zero outside a random
    # set of half-edges
    walk = CoinedWalk(g, family)
    ref = reference(g)
    rng = np.random.default_rng(seed)
    n = g.half_edge_count
    batch = random_amplitudes(rng, (rows, n))
    undefined = undefined_coin_half_edges(g, family)
    if undefined.size:
        # amplitude on a vertex whose coin is undefined raises
        batch[:, undefined[0]] = 1.0
        with pytest.raises(UnsupportedDegreeError, match="but amplitude occupies"):
            walk.step_amplitudes(batch[0])
        batch[:, undefined] = complex(-0.0, -0.0)
    support = np.flatnonzero(rng.random(n) < 0.5)
    batch[:, np.setdiff1d(np.arange(n), support)] = 0.0
    for amps in batch:
        assert same_bits(walk.step_amplitudes(amps), ref.two_pass_step(amps, family))


@pytest.mark.parametrize("g", [build_cycle(9), build_line(21)], ids=["cycle", "line"])
def test_iter_steps_yields_distinct_arrays(g):
    # on the cycle the step returns its table sum itself, on the line it
    # scatters into a fresh array; neither may hand out shared memory
    walk = CoinedWalk(g)
    start = initial_state(g, g.num_vertices // 2, "symmetric")
    states = list(walk.iter_steps(start, 5))
    arrays = [start.amplitudes] + [s.amplitudes for s in states]
    assert len(states) == 5
    for s in states:
        assert s.graph is g
        assert s.amplitudes.dtype == np.complex128
        assert s.amplitudes.shape == (g.half_edge_count,)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    want = start.amplitudes
    for s in states:
        want = walk.step_amplitudes(want)
        assert same_bits(s.amplitudes, want)


# --- iter_steps blocks ---------------------------------------------------
# ``iter_steps`` steps a block of rows at a time and takes the block's
# distributions by one bincount; every state and distribution must be the
# bits of one ``step_amplitudes`` after another and a bincount per state.

def reference_steps(walk, state, steps):
    g, amps = state.graph, state.amplitudes
    for _ in range(steps):
        amps = walk.step_amplitudes(amps)
        yield amps, np.bincount(g.half_edge_vertex, weights=np.abs(amps) ** 2,
                                minlength=g.num_vertices)


BLOCK_WALKS = {
    # degree 2 everywhere: the gather table fills the row in order
    "cycle16": lambda: (build_cycle(16), "default", 0, "symmetric"),
    # degree-1 ends: the gather table scatters
    "line101": lambda: (build_line(101), "default", 50, "symmetric"),
    # the Grover coin at degrees 2 and 3
    "glued4": lambda: (build_glued_trees(4, GlueSpec("random-cycle", seed=3)), "grover", 0,
                       "uniform"),
    # degree 12: one row per block
    "hypercube12": lambda: (build_hypercube(12), "default", 0, "uniform"),
    # isolated vertices in the middle and at the end of the edge list
    "isolated": lambda: (Graph(8, [(0, 1), (1, 2), (2, 0), (2, 4), (4, 5), (5, 6)]),
                         "default", 0, "uniform"),
}


@pytest.mark.parametrize("name", sorted(BLOCK_WALKS))
@pytest.mark.parametrize("count", ["zero", "one", "block", "block+1", "blocks"])
def test_iter_steps_is_the_step_loop_across_blocks(name, count):
    g, family, vertex, coin = BLOCK_WALKS[name]()
    walk = CoinedWalk(g, family)
    start = initial_state(g, vertex, coin)
    per_block = stats._block_rows(16 * g.half_edge_count)
    assert per_block == {"cycle16": 128, "line101": 20, "hypercube12": 1}.get(name, per_block)
    steps = {"zero": 0, "one": 1, "block": per_block, "block+1": per_block + 1,
             "blocks": 2 * per_block + 3}[count]
    states = list(walk.iter_steps(start, steps))
    want = list(reference_steps(walk, start, steps))
    assert len(states) == steps
    assert len({id(s._block) for s in states}) == -(-steps // per_block)
    # distributions read from the last state back, then amplitudes
    for state, (_, dist) in reversed(list(zip(states, want))):
        assert same_bits(state.position_distribution(), dist)
    for state, (amps, _) in zip(states, want):
        assert same_bits(state.amplitudes, amps)
    final = walk.evolve(start, steps)
    assert same_bits(final.amplitudes, want[-1][0] if steps else start.amplitudes)


@st.composite
def stepped_walks(draw):
    """A graph with degrees 0-4, a coin family and two start states: random
    edge lists, or a cycle (the gather table fills the row in order) or a
    line (it scatters), started at the origin."""
    kind = draw(st.sampled_from(["edges", "cycle", "line"]))
    family = draw(st.sampled_from(COIN_FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "line":
        g = build_line(draw(st.sampled_from([101, 201])))
        origin = g.params["origin"]
        return g, family, [initial_state(g, origin, "symmetric"),
                           initial_state(g, origin, "basis0")]
    if kind == "cycle":
        g = build_cycle(draw(st.integers(3, 24)))
    else:
        n = draw(st.integers(2, 10))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              min_size=1, max_size=30))
        degree, edges = np.zeros(n, int), set()
        for u, v in pairs:
            if u != v and (min(u, v), max(u, v)) not in edges and max(degree[[u, v]]) < 4:
                edges.add((min(u, v), max(u, v)))
                degree[[u, v]] += 1
        if not edges:
            edges.add((0, 1))
        g = Graph(n, sorted(edges))
    starts = []
    for vertex in rng.choice(np.flatnonzero(g.degrees > 0), 2):
        coin = rng.normal(size=g.degree(int(vertex))) * np.exp(2j * np.pi * rng.random())
        starts.append(initial_state(g, int(vertex), coin / np.linalg.norm(coin)))
    return g, family, starts


def read_until_error(items):
    """The items, and whether the iterator raised ``UnsupportedDegreeError``
    after them."""
    got = []
    try:
        for item in items:
            got.append(item)
    except UnsupportedDegreeError:
        return got, True
    return got, False


@settings(max_examples=150, deadline=None)
@given(walk=stepped_walks(), count=st.sampled_from(["zero", "one", "block", "block+1",
                                                     "blocks"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_iter_steps_is_the_step_loop_on_random_walks(walk, count, seed):
    g, family, starts = walk
    walk = CoinedWalk(g, family)
    assert max(g.degrees) <= 4
    if g.kind in ("cycle", "line"):
        assert (walk._gather[3] is None) == (g.kind == "cycle")
    per_block = stats._block_rows(16 * g.half_edge_count)
    steps = {"zero": 0, "one": 1, "block": per_block, "block+1": per_block + 1,
             "blocks": 2 * per_block + 3}[count]
    want = [read_until_error(reference_steps(walk, s, steps)) for s in starts]
    for start, expected in zip(starts, want):
        assert_same_series(read_until_error((s.amplitudes, s.position_distribution())
                                            for s in walk.iter_steps(start, steps)), expected)
    # two live iterators of one walk, read in turn with a lone step between
    # items, each still give their own loop's bits
    rng = np.random.default_rng(seed)
    between = random_amplitudes(rng, g.half_edge_count)
    between[undefined_coin_half_edges(g, family)] = 0.0
    iterators = [walk.iter_steps(s, steps) for s in starts]
    states, raised, live = [[], []], [False, False], [0, 1]
    while live:
        for i in list(live):
            try:
                states[i].append(next(iterators[i]))
            except (StopIteration, UnsupportedDegreeError) as exc:
                raised[i] = isinstance(exc, UnsupportedDegreeError)
                live.remove(i)
                continue
            if i == 0:
                # the first walk's distributions are taken at once, the
                # second's after both walks end
                states[i][-1].position_distribution()
            walk.step_amplitudes(between)
    for series, error, expected in zip(states, raised, want):
        assert_same_series(([(s.amplitudes, s.position_distribution()) for s in series],
                            error), expected)


def assert_same_series(got, want):
    assert len(got[0]) == len(want[0]) and got[1] == want[1]
    for (amps, dist), (want_amps, want_dist) in zip(got[0], want[0]):
        assert same_bits(amps, want_amps)
        assert same_bits(dist, want_dist)


def test_iter_steps_raises_at_the_item_whose_step_fails():
    g = build_glued_trees(2, GlueSpec("symmetric"))
    walk = CoinedWalk(g, "hadamard")
    start = initial_state(g, 0, (1.0, 0.0))
    # the whole walk fits in one block, so the failing step is taken early
    assert stats._block_rows(16 * g.half_edge_count) > 5
    states = walk.iter_steps(start, 5)
    first = next(states)
    assert same_bits(first.amplitudes, walk.step_amplitudes(start.amplitudes))
    # the root has degree 2; the second step meets degree-3 vertices
    with pytest.raises(UnsupportedDegreeError):
        next(states)
    assert next(states, None) is None
    # a consumer that stops after one item sees no error
    assert len(list(itertools.islice(walk.iter_steps(start, 5), 1))) == 1
    walk.evolve(start, 1)


@pytest.mark.parametrize("g,steps", [(build_line(101), 50), (build_cycle(16), 300)],
                         ids=["line", "cycle"])
def test_iter_steps_steps_at_most_one_block_ahead(g, steps):
    walk = CoinedWalk(g)
    start = initial_state(g, g.num_vertices // 2, "symmetric")
    per_block = stats._block_rows(16 * g.half_edge_count)
    make_stepper = CoinedWalk._stepper
    calls = [0]

    def counted_stepper(self):
        step = make_stepper(self)

        def counted(*args):
            calls[0] += 1
            return step(*args)
        return counted
    with mock.patch.object(CoinedWalk, "_stepper", counted_stepper):
        for read in sorted({0, 1, per_block - 1, per_block, per_block + 1, steps - 1, steps}):
            calls[0] = 0
            list(itertools.islice(walk.iter_steps(start, steps), read))
            assert calls[0] == min(steps, -(-read // per_block) * per_block)
            assert calls[0] <= steps and calls[0] - read < per_block


def test_evolve_takes_no_block_distribution():
    g = build_cycle(16)
    start = initial_state(g, 0, "symmetric")
    take = coined._StepBlock.__dict__["distributions"].func
    calls = [0]

    def counted(block):
        calls[0] += 1
        return take(block)
    with mock.patch.object(coined._StepBlock, "distributions", property(counted)):
        final = CoinedWalk(g).evolve(start, 300)
        assert calls[0] == 0
        final.position_distribution()
        assert calls[0] == 1


def test_iter_steps_states_are_read_only():
    g = build_cycle(16)
    walk = CoinedWalk(g)
    start = initial_state(g, 0, "symmetric")
    states = walk.iter_steps(start, 10)
    first = next(states)
    before = first.amplitudes.copy()
    with pytest.raises(ValueError):
        first.amplitudes[0] = 1.0
    with pytest.raises(ValueError):
        first.amplitudes *= 2.0
    with pytest.raises(ValueError):
        first.position_distribution()[0] = 1.0
    assert same_bits(first.amplitudes, before)
    # the states after it are the step loop's, from the unchanged first state
    for state, (amps, dist) in zip(states, list(reference_steps(walk, start, 10))[1:]):
        assert same_bits(state.amplitudes, amps)
        assert same_bits(state.position_distribution(), dist)
