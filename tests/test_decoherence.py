import functools
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalksim import decoherence

from qwalksim.classical import evolve_classical_exact, iter_classical_distributions
from qwalksim.coined import COIN_FAMILIES, CoinedWalk, PureState, coin_matrix, initial_state
from qwalksim.decoherence import (DENSITY_DIMENSION_LIMIT, NOT_MEASURED,
                                  DecoherenceSpec, DensityState, apply_channel,
                                  evolve_density, evolve_trajectory,
                                  iter_density_steps,
                                  MEASUREMENT_TARGETS, run_ensemble, to_density)
from qwalksim.errors import InvariantViolationError, UnsupportedDegreeError
from qwalksim.graphs import (Graph, GlueSpec, build_cycle, build_glued_trees,
                             build_hypercube, build_line)
from qwalksim.streams import RowStreams, uniform

from test_half_edge_table import same_bits


def embed(support, block, n):
    """The HxH matrix holding ``block`` on rows and columns ``support``, zero elsewhere."""
    m = np.zeros((n, n), dtype=np.complex128)
    m[np.ix_(support, support)] = block
    return m


def dense(rho):
    """The full HxH matrix of a density state."""
    return embed(rho.support, rho.block, rho.graph.half_edge_count)


def full_factors(graph, spec):
    """The channel's elementwise factors on all H half-edges."""
    return decoherence._dephasing_block(decoherence._sector_ids(graph, spec.target), spec.p)


def purity(rho):
    return float(np.sum(np.abs(dense(rho)) ** 2))


def random_density(graph, seed, rank=None):
    rng = np.random.default_rng(seed)
    n = graph.half_edge_count
    shape = (n, n if rank is None else rank)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = b @ b.conj().T
    return DensityState(graph, m / np.trace(m).real)


TRAJECTORY_GRAPHS = {
    "line": lambda: build_line(41),
    "cycle": lambda: build_cycle(7),
    "hypercube": lambda: build_hypercube(3),
    "glued-random": lambda: build_glued_trees(2, GlueSpec("random-cycle", 5)),
}


# --- spec validation -----------------------------------------------------

def test_spec_rejects_bad_probability():
    with pytest.raises(ValueError):
        DecoherenceSpec(p=-0.1)
    with pytest.raises(ValueError):
        DecoherenceSpec(p=1.5)


def test_spec_rejects_bad_target():
    with pytest.raises(ValueError):
        DecoherenceSpec(p=0.5, target="everything")


def test_spec_defaults():
    spec = DecoherenceSpec()
    assert spec.p == 0.0
    assert spec.target == "both"


# --- density states ------------------------------------------------------

def test_to_density_is_rank_one_projector():
    g = build_line(5)
    s = initial_state(g, g.params["origin"], "symmetric")
    rho = to_density(s)
    assert rho.trace() == pytest.approx(1.0, abs=1e-14)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(dense(rho), dense(rho).conj().T)


def test_density_position_distribution_matches_pure():
    g = build_cycle(7)
    s = initial_state(g, 2, "uniform")
    walked = CoinedWalk(g).evolve(s, 5)
    assert np.allclose(to_density(walked).position_distribution(),
                       walked.position_distribution(), atol=1e-13)


def test_density_rejects_wrong_shape():
    g = build_cycle(5)
    with pytest.raises(ValueError):
        DensityState(g, np.eye(3))


def test_density_dimension_limit():
    g = build_cycle(DENSITY_DIMENSION_LIMIT // 2 + 1)
    assert g.half_edge_count > DENSITY_DIMENSION_LIMIT
    with pytest.raises(ValueError):
        DensityState(g, np.eye(g.half_edge_count) / g.half_edge_count)


def test_to_density_refuses_before_allocating(monkeypatch):
    g = build_line(201)
    projector_bytes = g.half_edge_count ** 2 * 16
    state = initial_state(g, g.params["origin"])
    monkeypatch.setattr(decoherence, "DENSITY_DIMENSION_LIMIT", 8)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="density-matrix limit 8"):
            to_density(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < projector_bytes // 10


def test_states_hold_their_live_support():
    g = build_line(21)
    m = np.zeros((g.half_edge_count, g.half_edge_count), dtype=complex)
    m[18, 21] = m[21, 18] = 0.25
    m[4, 4] = m[30, 30] = 0.5
    rho = DensityState(g, m)
    assert rho.support.tolist() == [4, 18, 21, 30]
    assert same_bits(rho.block, m[np.ix_(rho.support, rho.support)])
    m[4, 4] = 0.0  # the state holds a copy
    assert rho.block[0, 0] == 0.5
    pure = to_density(initial_state(g, 10, np.array([0.6, 0.8j])))
    assert pure.support.tolist() == [19, 20]
    for state in (rho, pure):
        assert np.array_equal(state.support, decoherence._live_indices(dense(state)))
        assert state.block.shape == (len(state.support),) * 2
        with pytest.raises(ValueError, match="read-only"):
            state.support[0] = 0


def test_to_density_allocates_its_support_alone():
    g = build_line(201)
    state = initial_state(g, g.params["origin"], "symmetric")
    tracemalloc.start()
    try:
        rho = to_density(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.half_edge_count ** 2 * 16 // 10
    assert rho.block.shape == (2, 2)


def test_density_step_buffers_follow_the_set():
    # one step from the origin reaches |S| = 2 half-edges of H = 400
    g = build_line(201)
    rho = to_density(initial_state(g, g.params["origin"], "symmetric"))
    tracemalloc.start()
    try:
        stepped = evolve_density(rho, DecoherenceSpec(0.1), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.half_edge_count ** 2 * 16 // 10
    assert stepped.block.shape == (2, 2)


def test_check_accepts_valid_state():
    g = build_cycle(4)
    random_density(g, 3).check()


def test_check_rejects_non_hermitian():
    g = build_cycle(4)
    rho = random_density(g, 0)
    rho.block[0, 1] += 1e-3
    with pytest.raises(InvariantViolationError):
        rho.check()


def test_check_rejects_bad_trace():
    g = build_cycle(4)
    rho = random_density(g, 1)
    rho.block *= 1.5
    with pytest.raises(InvariantViolationError):
        rho.check()


def test_check_rejects_negative_eigenvalue():
    g = build_cycle(4)
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0], m[1, 1] = 1.5, -0.5
    with pytest.raises(InvariantViolationError):
        DensityState(g, m).check()


def test_check_finds_a_negative_eigenvalue_behind_a_zero_diagonal():
    # [[0, 1/2], [1/2, 0]] on half-edges 2 and 5 has eigenvalue -1/2; a live
    # set read off the diagonal would drop both and see only the 1 at 7
    g = build_cycle(4)
    m = np.zeros((8, 8), dtype=complex)
    m[2, 5] = m[5, 2] = 0.5
    m[7, 7] = 1.0
    with pytest.raises(InvariantViolationError, match="negative eigenvalue"):
        DensityState(g, m).check()


@settings(max_examples=50, deadline=None)
@given(rank=st.integers(1, 6), live=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1))
def test_check_on_the_live_block_matches_the_full_spectrum(rank, live, seed):
    g = build_line(11)
    n = g.half_edge_count
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(n, size=live, replace=False))
    b = rng.normal(size=(live, rank)) + 1j * rng.normal(size=(live, rank))
    m = np.zeros((n, n), dtype=complex)
    m[np.ix_(keep, keep)] = b @ b.conj().T
    m /= np.trace(m).real
    residuals = DensityState(g, m).check()
    assert residuals["live_dimension"] == live
    assert abs(residuals["min_eigenvalue"] - np.linalg.eigvalsh(m)[0]) <= 1e-12
    assert residuals["hermiticity_deviation"] == np.max(np.abs(m - m.conj().T))
    assert residuals["trace_deviation"] == abs(np.trace(m) - 1.0)


def test_check_returns_its_residuals():
    g = build_cycle(4)
    rho = random_density(g, 3)
    residuals = rho.check()
    assert sorted(residuals) == ["hermiticity_deviation", "live_dimension",
                                 "min_eigenvalue", "trace_deviation"]
    assert residuals["live_dimension"] == g.half_edge_count
    assert residuals["min_eigenvalue"] == np.linalg.eigvalsh(dense(rho))[0]
    assert residuals["trace_deviation"] <= 1e-12


# --- dephasing channel ---------------------------------------------------

def test_channel_identity_at_p_zero():
    g = build_cycle(5)
    rho = random_density(g, 7)
    out = apply_channel(rho, DecoherenceSpec(0.0, "both"))
    assert np.array_equal(dense(out), dense(rho))


def test_channel_full_measurement_kills_off_diagonals():
    g = build_cycle(5)
    out = apply_channel(random_density(g, 8), DecoherenceSpec(1.0, "both"))
    off = dense(out) - np.diag(np.diag(dense(out)))
    assert np.all(off == 0.0)


def test_channel_preserves_trace_exactly():
    g = build_line(7)
    rho = random_density(g, 9)
    for target in ("position", "coin", "both"):
        out = apply_channel(rho, DecoherenceSpec(0.37, target))
        # same-sector factors are exactly 1, so the diagonal is untouched
        assert np.array_equal(np.diag(dense(out)), np.diag(dense(rho)))


def test_position_measurement_keeps_coin_coherence():
    g = build_cycle(5)
    rho = random_density(g, 10)
    out = apply_channel(rho, DecoherenceSpec(1.0, "position"))
    for v in range(g.num_vertices):
        lo = g.offsets[v]
        hi = lo + g.degree(v)
        assert np.array_equal(dense(out)[lo:hi, lo:hi], dense(rho)[lo:hi, lo:hi])
        assert np.all(dense(out)[lo:hi, hi:] == 0.0)


def test_channel_matches_explicit_projector_sum():
    # independent route: (1-p) rho + p * sum_k P_k rho P_k with literal
    # diagonal projectors, one per position outcome
    g = build_line(7)
    rho = random_density(g, 11)
    p = 0.42
    acc = np.zeros_like(dense(rho))
    for v in range(g.num_vertices):
        mask = np.zeros(g.half_edge_count)
        lo = g.offsets[v]
        mask[lo:lo + g.degree(v)] = 1.0
        proj = np.diag(mask)
        acc += proj @ dense(rho) @ proj
    expected = (1 - p) * dense(rho) + p * acc
    out = apply_channel(rho, DecoherenceSpec(p, "position"))
    assert np.allclose(dense(out), expected, atol=1e-14)


def test_coin_channel_matches_explicit_projector_sum():
    g = build_cycle(6)
    rho = random_density(g, 12)
    p = 0.6
    acc = np.zeros_like(dense(rho))
    for c in range(2):
        mask = np.zeros(g.half_edge_count)
        for v in range(g.num_vertices):
            mask[g.offsets[v] + c] = 1.0
        proj = np.diag(mask)
        acc += proj @ dense(rho) @ proj
    expected = (1 - p) * dense(rho) + p * acc
    out = apply_channel(rho, DecoherenceSpec(p, "coin"))
    assert np.allclose(dense(out), expected, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(TRAJECTORY_GRAPHS)),
       target=st.sampled_from(MEASUREMENT_TARGETS), p=st.floats(0.0, 1.0),
       rank=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_channel_keeps_a_density_matrix(name, target, p, rank, seed):
    # low rank leaves most eigenvalues at zero, where a channel that is
    # not positive would push some below it
    rho = random_density(TRAJECTORY_GRAPHS[name](), seed, rank)
    out = dense(apply_channel(rho, DecoherenceSpec(p, target)))
    assert abs(np.trace(out) - np.trace(dense(rho))) <= 1e-12
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(out).min() >= -1e-12


# --- density evolution ---------------------------------------------------

def test_density_evolution_matches_pure_at_p_zero():
    g = build_line(21)
    s = initial_state(g, g.params["origin"], "symmetric")
    rho = evolve_density(to_density(s), DecoherenceSpec(0.0), 8)
    pure = CoinedWalk(g).evolve(s, 8)
    assert np.allclose(dense(rho), dense(to_density(pure)), atol=1e-12)


def test_density_evolution_p_one_matches_classical():
    # fully measured walk loses all coherence: positions follow the
    # degree-uniform classical chain computed by a separate engine
    g = build_cycle(15)
    s = initial_state(g, 0, "basis0")
    rho_steps = iter_density_steps(to_density(s), DecoherenceSpec(1.0, "both"))
    classical_steps = iter_classical_distributions(g, 0)
    for _ in range(50):
        got = next(rho_steps).position_distribution()
        want = next(classical_steps)
        assert np.max(np.abs(got - want)) < 1e-12


def test_density_evolution_keeps_invariants():
    g = build_cycle(6)
    s = initial_state(g, 0, "symmetric")
    rho = evolve_density(to_density(s), DecoherenceSpec(0.15), 100)
    rho.check()
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)


def test_purity_never_increases_over_time():
    # unitary conjugation preserves purity and the dephasing channel is
    # unital, so purity is non-increasing step to step; p=0 keeps it at 1
    g = build_cycle(9)
    s = initial_state(g, 0, "basis0")
    pure_run = evolve_density(to_density(s), DecoherenceSpec(0.0), 20)
    assert purity(pure_run) == pytest.approx(1.0, abs=1e-10)
    last = 1.0
    for rho, _ in zip(iter_density_steps(to_density(s), DecoherenceSpec(0.2)),
                      range(20)):
        current = purity(rho)
        assert current <= last + 1e-12
        last = current
    assert last < 0.5


def test_iter_density_matches_evolve():
    g = build_cycle(5)
    s = initial_state(g, 1, "uniform")
    spec = DecoherenceSpec(0.3, "position")
    it = iter_density_steps(to_density(s), spec)
    for steps in range(1, 6):
        stepped = next(it)
        direct = evolve_density(to_density(s), spec, steps)
        assert np.allclose(dense(stepped), dense(direct), atol=1e-13)


def test_density_evolution_rejects_negative_steps():
    g = build_cycle(4)
    s = initial_state(g, 0, "basis0")
    with pytest.raises(ValueError):
        evolve_density(to_density(s), DecoherenceSpec(0.1), -1)


# --- structure-aware step against the dense reference ------------------

STEP_GRAPHS = {
    "line": lambda: build_line(9),
    "cycle": lambda: build_cycle(7),
    "hypercube2": lambda: build_hypercube(2),
    "hypercube3": lambda: build_hypercube(3),
    "glued-symmetric": lambda: build_glued_trees(3, GlueSpec("symmetric")),
    "glued-random-cycle": lambda: build_glued_trees(3, GlueSpec("random-cycle", seed=4)),
}


def random_square(graph, seed):
    # neither Hermitian nor unit-trace: only the exact two-sided form
    # U rho U^dagger reproduces the reference on such a matrix
    rng = np.random.default_rng(seed)
    n = graph.half_edge_count
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def dense_step_operator(graph, coin):
    # column k is one step of basis vector k through the coin and shift maps,
    # a route that does not go through step_matrix
    walk = CoinedWalk(graph, coin)
    return np.column_stack([walk.step_amplitudes(e)
                            for e in np.eye(graph.half_edge_count, dtype=complex)])


def coin_defined(graph, coin):
    try:
        for v in range(graph.num_vertices):
            coin_matrix(coin, graph.degree(v))
    except UnsupportedDegreeError:
        return False
    return True


def defined_step(graph, coin):
    """The full-range step of the decohered routes, and the half-edges whose
    coin is undefined: ``step_matrix()`` where the family defines every
    coin. The Hadamard family defines only degree 2: there it is the default
    family's matrix (the Hadamard coin at degree 2) with the other
    half-edges' columns emptied, the rest in the same order."""
    if coin_defined(graph, coin):
        return CoinedWalk(graph, coin).step_matrix(), np.empty(0, np.int64)
    assert coin == "hadamard"
    undefined = np.flatnonzero(graph.degrees[graph.half_edge_vertex] != 2)
    u = CoinedWalk(graph, "default").step_matrix()
    u.data[np.isin(u.indices, undefined)] = 0.0
    u.eliminate_zeros()
    return u, undefined


def refuse_undefined(graph, coin, occupied):
    """The lone walker's error if any half-edge ``occupied`` lists, each
    with an undefined coin, holds amplitude."""
    if occupied.size:
        degree = graph.degrees[graph.half_edge_vertex[occupied]].min()
        raise UnsupportedDegreeError(
            f"{coin} coin undefined for degree {degree} but amplitude occupies such a vertex")


@pytest.mark.parametrize("target", MEASUREMENT_TARGETS)
@pytest.mark.parametrize("coin", COIN_FAMILIES)
@pytest.mark.parametrize("graph_name", sorted(STEP_GRAPHS))
def test_density_step_matches_dense_reference(graph_name, coin, target):
    g = STEP_GRAPHS[graph_name]()
    spec = DecoherenceSpec(0.3, target)
    m = random_square(g, 21)
    steps = iter_density_steps(DensityState(g, m), spec, coin)
    if not coin_defined(g, coin):
        with pytest.raises(UnsupportedDegreeError):
            next(steps)
        return
    u = dense_step_operator(g, coin)
    for _ in range(3):  # odd and even steps: both layouts of the iterate
        m = dense(apply_channel(DensityState(g, u @ m @ u.conj().T), spec))
        got = dense(next(steps))
        assert np.max(np.abs(got - m)) < 1e-12 * np.max(np.abs(m))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       target=st.sampled_from(MEASUREMENT_TARGETS),
       coin=st.sampled_from(COIN_FAMILIES))
def test_density_step_matches_dense_reference_on_cycles(n, p, seed, target, coin):
    g = build_cycle(n)
    spec = DecoherenceSpec(p, target)
    m = random_square(g, seed)
    u = dense_step_operator(g, coin)
    steps = iter_density_steps(DensityState(g, m), spec, coin)
    for _ in range(2):
        m = dense(apply_channel(DensityState(g, u @ m @ u.conj().T), spec))
        assert np.max(np.abs(dense(next(steps)) - m)) < 1e-12 * np.max(np.abs(m))


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_evolve_density_matches_dense_reference(steps):
    g = build_glued_trees(2, GlueSpec("random-cycle", seed=3))
    spec = DecoherenceSpec(0.2, "position")
    m = random_square(g, 4)
    u = dense_step_operator(g, "default")
    want = m
    for _ in range(steps):
        want = dense(apply_channel(DensityState(g, u @ want @ u.conj().T), spec))
    got = dense(evolve_density(DensityState(g, m), spec, steps))
    assert got.flags.c_contiguous
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_iter_density_steps_yields_independent_copies():
    g = build_cycle(5)
    spec = DecoherenceSpec(0.1, "both")
    rho0 = random_density(g, 6)
    before = dense(rho0)
    it = iter_density_steps(rho0, spec)
    first = next(it)
    first.block[:] = 0.0
    second = next(it)
    assert np.array_equal(dense(rho0), before)
    direct = evolve_density(rho0, spec, 2)
    assert np.allclose(dense(second), dense(direct), atol=1e-14)


def test_yielded_states_own_their_support_blocks():
    g = build_line(41)
    rho0 = to_density(initial_state(g, g.params["origin"], "symmetric"))
    spec = DecoherenceSpec(0.2, "position")
    before = rho0.block.copy()
    reference = [dense(rho) for rho in itertools.islice(iter_density_steps(rho0, spec), 8)]
    for rho, want in zip(iter_density_steps(rho0, spec), reference):
        assert np.array_equal(rho.support, decoherence._live_indices(want))
        assert rho.block.shape == (len(rho.support),) * 2
        assert rho.block.flags.c_contiguous
        assert np.array_equal(dense(rho), want)
        rho.block[:] = 0.0
    assert same_bits(rho0.block, before)
    last = evolve_density(rho0, spec, 8)
    assert last.block.flags.c_contiguous
    assert np.array_equal(dense(last), reference[-1])
    assert evolve_density(rho0, spec, 0) is rho0


# --- light-cone window against the full-range step ----------------------
#
# The loop below is the density step as it was before the window: every
# step multiplies the whole HxH matrix. The windowed engine must give the
# same bits at every step, signed zeros included, from any start.

def full_range_density_matrices(rho0, spec, coin):
    graph = rho0.graph
    u, undefined = defined_step(graph, coin)
    u_conj = u.conj()
    factors = full_factors(graph, spec)
    held = dense(rho0)
    turned = np.empty(held.shape, dtype=np.complex128)
    transposed = False
    while True:
        # a nonzero row or column on a vertex without a coin cannot step
        refuse_undefined(graph, coin, undefined[held[undefined].any(axis=1)
                                                | held[:, undefined].any(axis=0)])
        first, second = (u_conj, u) if transposed else (u, u_conj)
        np.copyto(turned, (first @ held).T)
        held = second @ turned
        held *= factors
        transposed = not transposed
        yield held.T if transposed else held


def bits(matrix):
    return np.ascontiguousarray(matrix).view(np.uint64)


def assert_same_bits_as_full_range(rho0, spec, coin, steps):
    reference = full_range_density_matrices(rho0, spec, coin)
    windowed = iter_density_steps(rho0, spec, coin)
    for _ in range(steps):
        try:
            want = next(reference)
        except UnsupportedDegreeError as exc:
            # the state holds amplitude on a vertex whose coin is undefined:
            # the windowed step raises the same error at the same step
            with pytest.raises(UnsupportedDegreeError) as got:
                next(windowed)
            assert str(got.value) == str(exc)
            return
        assert np.array_equal(bits(dense(next(windowed))), bits(want))


def line_start(g, kind, rng):
    """A start on the line: a pure state at one site, or a matrix on a sub-range."""
    n = g.num_vertices
    sites = {"origin": g.params["origin"], "first": 0, "last": n - 1,
             "second": 1, "second-last": n - 2}
    h = g.half_edge_count
    if kind in sites:
        d = g.degree(sites[kind])
        coin = rng.normal(size=d) + 1j * rng.normal(size=d)
        return to_density(initial_state(g, sites[kind], coin / np.linalg.norm(coin)))
    a = int(rng.integers(0, h))
    b = int(rng.integers(a + 1, h + 1))
    block = rng.normal(size=(b - a, b - a)) + 1j * rng.normal(size=(b - a, b - a))
    m = np.zeros((h, h), dtype=complex)
    if kind == "density":
        m[a:b, a:b] = block @ block.conj().T
        m /= np.trace(m).real
    else:
        # coherences only: rows and columns with a zero diagonal are live
        m[a:b, a:b] = block - np.diag(np.diag(block))
    return DensityState(g, m)


LINE_STARTS = ("origin", "first", "last", "second", "second-last", "density", "coherence")


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 20).map(lambda k: 2 * k + 1),
       start=st.sampled_from(LINE_STARTS), coin=st.sampled_from(COIN_FAMILIES),
       target=st.sampled_from(MEASUREMENT_TARGETS),
       p=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_windowed_density_step_is_the_full_range_step_on_lines(n, start, coin, target,
                                                               p, seed):
    # past n steps the state has met both ends of the line and come back
    g = build_line(n)
    rho0 = line_start(g, start, np.random.default_rng(seed))
    assert_same_bits_as_full_range(rho0, DecoherenceSpec(p, target), coin, n + 3)


@pytest.mark.parametrize("target", MEASUREMENT_TARGETS)
def test_evolve_density_on_a_line_is_the_full_range_result(target):
    g = build_line(61)
    rho0 = to_density(initial_state(g, g.params["origin"], np.array([0.6, 0.8j])))
    spec = DecoherenceSpec(0.07, target)
    for steps in (0, 1, 17, 30):
        want = dense(rho0)
        for want in itertools.islice(full_range_density_matrices(rho0, spec, "default"),
                                     steps):
            pass
        got = dense(evolve_density(rho0, spec, steps))
        assert got.flags.c_contiguous
        assert np.array_equal(bits(got), bits(want))


def test_coherence_without_diagonal_starts_the_window():
    # |a><b| + |b><a| has a zero diagonal; a window read off the diagonal
    # would be empty and every step would come out zero
    g = build_line(21)
    m = np.zeros((g.half_edge_count, g.half_edge_count), dtype=complex)
    m[18, 21] = m[21, 18] = 0.5
    steps = iter_density_steps(DensityState(g, m), DecoherenceSpec(0.2, "position"))
    assert np.any(dense(next(steps)) != 0)
    assert_same_bits_as_full_range(DensityState(g, m), DecoherenceSpec(0.2, "position"),
                                   "default", 12)


@pytest.mark.parametrize("entry", [(0, 5), (5, 0)], ids=["row", "column"])
def test_density_refuses_a_row_or_column_on_a_vertex_without_a_coin(entry):
    # half-edge 0 is the degree-1 end of the line, where the Hadamard coin
    # is undefined; U has no column for it, so a step would drop the entry
    g = build_line(9)
    m = np.zeros((g.half_edge_count, g.half_edge_count), dtype=complex)
    m[entry] = 1.0
    with pytest.raises(UnsupportedDegreeError, match="degree 1 but amplitude occupies"):
        next(iter_density_steps(DensityState(g, m), DecoherenceSpec(0.2), "hadamard"))
    assert_same_bits_as_full_range(DensityState(g, m), DecoherenceSpec(0.2), "hadamard", 1)


def test_decohered_routes_name_the_lowest_undefined_degree():
    # a star has a degree-3 centre and degree-1 leaves, neither with a
    # Hadamard coin: every route names degree 1, the first the lone
    # walker's step meets
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    s = PureState(g, np.full(6, 1 / np.sqrt(6), dtype=complex))
    with pytest.raises(UnsupportedDegreeError, match="degree 1 ") as pure:
        CoinedWalk(g, "hadamard").step_amplitudes(s.amplitudes)
    spec = DecoherenceSpec(0.5)
    for run in (lambda: evolve_trajectory(s, spec, 1, seed=1, coin="hadamard"),
                lambda: run_ensemble(s, spec, 1, 3, 1, "hadamard"),
                lambda: evolve_density(to_density(s), spec, 1, "hadamard")):
        with pytest.raises(UnsupportedDegreeError) as got:
            run()
        assert str(got.value) == str(pure.value)


def test_zero_matrix_stays_zero():
    g = build_line(9)
    m = np.zeros((g.half_edge_count, g.half_edge_count), dtype=complex)
    assert_same_bits_as_full_range(DensityState(g, m), DecoherenceSpec(0.3), "default", 3)


FULL_RANGE_GRAPHS = {
    "cycle": lambda: build_cycle(9),
    "hypercube": lambda: build_hypercube(3),
    "glued-symmetric": lambda: build_glued_trees(3, GlueSpec("symmetric")),
    "glued-random-cycle": lambda: build_glued_trees(3, GlueSpec("random-cycle", seed=4)),
}


@pytest.mark.parametrize("target", MEASUREMENT_TARGETS)
@pytest.mark.parametrize("coin", COIN_FAMILIES)
@pytest.mark.parametrize("graph_name", sorted(FULL_RANGE_GRAPHS))
def test_density_step_on_graphs_that_do_not_localise(graph_name, coin, target):
    g = FULL_RANGE_GRAPHS[graph_name]()
    spec = DecoherenceSpec(0.3, target)
    assert_same_bits_as_full_range(random_density(g, 5), spec, coin, 6)
    d = g.degree(0)
    start = to_density(initial_state(g, 0, np.exp(1j * np.arange(d)) / np.sqrt(d)))
    assert_same_bits_as_full_range(start, spec, coin, 6)


def density_plan(graph, coin, spec):
    """``_density_plan`` bound as a density run binds it."""
    return functools.partial(decoherence._density_plan,
                             decoherence._restriction(CoinedWalk(graph, coin)),
                             decoherence._sector_ids(graph, spec.target), spec.p)


def test_full_support_runs_on_the_step_operator_itself():
    g = build_cycle(7)
    u = CoinedWalk(g).step_matrix()
    u_conj = u.conj()
    n = g.half_edge_count
    spec = DecoherenceSpec(0.3)
    support_next, indptr, indices, data, blocked, data_conj, factors = \
        density_plan(g, "default", spec)(np.arange(n))
    assert np.array_equal(support_next, np.arange(n)) and blocked is None
    # the general plan on the full set is U's own arrays, bytes and dtypes
    for got, want in ((indptr, u.indptr), (indices, u.indices), (data, u.data),
                      (data_conj, u_conj.data)):
        assert same_bits(got, want)
    assert same_bits(factors, full_factors(g, spec))


def test_density_plan_grows_to_the_rows_that_touch_the_set():
    g = build_line(21)
    u = CoinedWalk(g).step_matrix()
    n = g.half_edge_count
    spec = DecoherenceSpec(0.3, "position")
    factors = full_factors(g, spec)
    plan = density_plan(g, "default", spec)
    dense = u.toarray()
    rng = np.random.default_rng(3)
    sets = [[0], [3], [18, 19, 20, 21], [n - 1], [], list(range(n - 1)),
            list(range(1, n, 2)), list(range(0, n, 2)), [2, 7, 8, 30],
            sorted(rng.choice(n, 15, replace=False))]
    for support in map(np.array, sets):
        support = support.astype(np.int64)
        support_next, indptr, indices, data, blocked, data_conj, block_factors = plan(support)
        assert blocked is None
        touched = np.flatnonzero(np.any(dense[:, support] != 0, axis=1))
        assert np.array_equal(support_next, touched)
        shape = (len(support_next), len(support))
        want = dense[support_next][:, support]
        block = scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)
        assert np.array_equal(block.toarray(), want)
        conj_block = scipy.sparse.csr_matrix((data_conj, indices, indptr), shape=shape)
        assert np.array_equal(conj_block.toarray(), want.conj())
        assert same_bits(block_factors, factors[np.ix_(support_next, support_next)])


def test_restricted_rows_keep_the_stored_term_order():
    # a product skips only terms of zero rows of the state, so each
    # row's kept terms must come in U's order for the sums to round alike
    g = build_hypercube(3)
    u = CoinedWalk(g).step_matrix()
    support = np.array([0, 1, 2, 9, 10, 11, 14])
    support_next, indptr, indices, data, *_ = \
        density_plan(g, "default", DecoherenceSpec(0.3, "both"))(support)
    for r, row in enumerate(support_next):
        cols = u.indices[u.indptr[row]:u.indptr[row + 1]]
        kept = np.isin(cols, support)
        assert np.array_equal(support[indices[indptr[r]:indptr[r + 1]]], cols[kept])
        assert np.array_equal(data[indptr[r]:indptr[r + 1]],
                              u.data[u.indptr[row]:u.indptr[row + 1]][kept])


def unit_coin(graph, vertex, seed):
    d = graph.degree(vertex)
    rng = np.random.default_rng(seed)
    coin = rng.normal(size=d) + 1j * rng.normal(size=d)
    return coin / np.linalg.norm(coin)


def test_line_steps_on_the_live_half_edges_alone():
    # a line walk keeps the parity of the step count: after t steps from
    # the origin it holds 2t half-edges, half of the span the walker has
    # crossed, and each step's set is exactly the live rows and columns
    g = build_line(201)
    origin = g.params["origin"]
    rho0 = to_density(initial_state(g, origin, unit_coin(g, origin, 13)))
    spec = DecoherenceSpec(0.1, "both")
    reference = full_range_density_matrices(rho0, spec, "default")
    n = g.half_edge_count
    for t, (support, block) in enumerate(
            itertools.islice(decoherence._density_blocks(rho0, spec, "default"), 100), 1):
        got = embed(support, block, n)
        assert np.array_equal(bits(got), bits(next(reference)))
        assert len(support) == DensityState(g, got).check()["live_dimension"] == 2 * t
    assert len(support) == 200 == n // 2


BIPARTITE_GRAPHS = {
    "cycle16": lambda: build_cycle(16),
    "hypercube3": lambda: build_hypercube(3),
    "glued-symmetric": lambda: build_glued_trees(4, GlueSpec("symmetric")),
    "glued-random-cycle": lambda: build_glued_trees(4, GlueSpec("random-cycle", seed=4)),
}


def support_sets(rho0, spec, steps):
    blocks = decoherence._density_blocks(rho0, spec, "default")
    return [decoherence._live_indices(dense(rho0))] + [
        support for support, _ in itertools.islice(blocks, steps)]


@pytest.mark.parametrize("graph_name", sorted(BIPARTITE_GRAPHS))
def test_sets_alternate_between_two_halves_on_bipartite_graphs(graph_name):
    g = BIPARTITE_GRAPHS[graph_name]()
    rho0 = to_density(initial_state(g, 0, unit_coin(g, 0, 5)))
    sets = support_sets(rho0, DecoherenceSpec(0.2, "both"), 40)
    for now, after in zip(sets, sets[1:]):
        assert not np.intersect1d(now, after).size
    even, odd = sets[-2], sets[-1]
    assert np.array_equal(np.union1d(even, odd), np.arange(g.half_edge_count))
    assert all(np.array_equal(s, even) for s in sets[-2::-2][:5])
    assert all(np.array_equal(s, odd) for s in sets[-1::-2][:5])


def test_odd_cycle_reaches_every_half_edge():
    g = build_cycle(9)
    rho0 = to_density(initial_state(g, 0, unit_coin(g, 0, 7)))
    sets = support_sets(rho0, DecoherenceSpec(0.2, "both"), 20)
    full = [len(s) == g.half_edge_count for s in sets]
    assert full[-1] and full.index(True) < 10
    assert all(full[full.index(True):])


def count_plan_builds(rho0, spec, steps):
    with mock.patch.object(decoherence, "_step_plan",
                           wraps=decoherence._step_plan) as build:
        for _ in itertools.islice(iter_density_steps(rho0, spec), steps):
            pass
    return build.call_count


def test_cycle_builds_each_plan_once():
    # the mixing runs step cycle(16) up to 10^5 times: two plans, built once
    g = build_cycle(16)
    spec = DecoherenceSpec(0.05, "both")
    even = np.flatnonzero(g.half_edge_vertex % 2 == 0)
    b = np.random.default_rng(2).normal(size=(len(even), 2 * len(even))).view(complex)
    m = np.zeros((g.half_edge_count, g.half_edge_count), dtype=complex)
    m[np.ix_(even, even)] = b @ b.conj().T / np.trace(b @ b.conj().T).real
    assert count_plan_builds(DensityState(g, m), spec, 50) == 2
    # from one vertex the set grows to a half first, one plan per set
    rho0 = to_density(initial_state(g, 0, unit_coin(g, 0, 9)))
    distinct = {s.tobytes() for s in support_sets(rho0, spec, 49)}
    assert count_plan_builds(rho0, spec, 50) == len(distinct) > 2


def test_density_runs_keep_no_plan():
    # a reused plan never charges a budget, so a density iterator, which
    # never ends, must run with none: it keeps the last two sets' plans
    g = build_cycle(16)
    rho0 = to_density(initial_state(g, 0, unit_coin(g, 0, 9)))
    with mock.patch.object(decoherence._StepPlans, "__init__", autospec=True,
                           side_effect=decoherence._StepPlans.__init__) as made:
        for _ in itertools.islice(iter_density_steps(rho0, DecoherenceSpec(0.05)), 10 ** 4):
            pass
    plans = made.call_args.args[0]
    assert plans.kept == [] and len(plans.recent) <= 2


def plan_sets(build, start, steps):
    plans = decoherence._StepPlans(build, start)
    return [start] + [plan[0] for plan in itertools.islice(plans, steps)]


@pytest.mark.parametrize("graph_name", sorted(STEP_GRAPHS))
def test_density_and_trajectory_plans_walk_the_same_sets(graph_name):
    # one builder plans both routes, and a set keeps the dtype of the
    # start: int32 for trajectories. S_{t+1} is the rows of U with a
    # nonzero in a column of S_t; a zero coin entry (the Grover coin's
    # diagonal at degree 2) reaches nothing
    g = STEP_GRAPHS[graph_name]()
    h = g.half_edge_count
    v = g.num_vertices // 2
    state = initial_state(g, v, unit_coin(g, v, 3))
    pure = to_density(state).support
    assert np.array_equal(pure, np.flatnonzero(state.amplitudes))
    subset = np.sort(np.random.default_rng(8).choice(h, h // 3, replace=False))
    coins = [coin for coin in COIN_FAMILIES if coin_defined(g, coin)]
    assert "grover" in coins
    for coin in coins:
        build = density_plan(g, coin, DecoherenceSpec(0.3))
        u = dense_step_operator(g, coin)
        for start in (pure, subset):
            want = plan_sets(build, start, 2 * h)
            got = plan_sets(decoherence._restriction(CoinedWalk(g, coin)),
                            start.astype(np.int32), 2 * h)
            assert all(a.dtype == np.int32 and np.array_equal(a, b)
                       for a, b in zip(got, want, strict=True))
            for now, after in zip(want, want[1:]):
                assert np.array_equal(after, np.flatnonzero(np.any(u[:, now] != 0, axis=1)))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12), vecs=st.integers(1, 12),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_sparse_product_is_scipy_matmul(rows, cols, vecs, density, seed):
    rng = np.random.default_rng(seed)
    a = scipy.sparse.random(rows, cols, density=density, format="csr", rng=rng,
                            dtype=np.complex128)
    a.data = rng.normal(size=a.nnz) + 1j * rng.normal(size=a.nnz)
    x = rng.normal(size=(cols, vecs)) + 1j * rng.normal(size=(cols, vecs))
    x[rng.random(x.shape) < 0.3] = -0.0
    out = np.full((rows, vecs), np.nan, dtype=np.complex128)
    got = decoherence._sparse_product(a.indptr, a.indices, a.data, x, out)
    assert got is out
    assert np.array_equal(bits(got), bits(a @ x))


# --- measured trajectories ----------------------------------------------

def test_trajectory_without_measurement_matches_pure():
    g = build_line(31)
    s = initial_state(g, g.params["origin"], "symmetric")
    final, record = evolve_trajectory(s, DecoherenceSpec(0.0), 10, seed=5)
    pure = CoinedWalk(g).evolve(s, 10)
    assert np.allclose(final.amplitudes, pure.amplitudes, atol=1e-13)
    assert record.shape == (10, 4)
    assert np.all(record[:, 1] == 0)
    assert np.all(record[:, 2:] == NOT_MEASURED)


UNMEASURED_GRAPHS = {
    "line": (lambda: build_line(81), 30),
    "cycle": (lambda: build_cycle(9), 30),
    "hypercube6": (lambda: build_hypercube(6), 20),
    "glued4": (lambda: build_glued_trees(4, GlueSpec("random-cycle", seed=4)), 30),
}


@pytest.mark.parametrize("coin", COIN_FAMILIES)
@pytest.mark.parametrize("name", sorted(UNMEASURED_GRAPHS))
def test_unmeasured_trajectory_is_the_lone_walk(name, coin):
    # at p = 0 a trajectory is the lone walker: the same values on the line
    # and cycle with a real coin, and within rounding where a complex coin
    # or a sum of more than two terms may round otherwise. A coin the
    # family does not define raises the walker's error on both
    make, steps = UNMEASURED_GRAPHS[name]
    g = make()
    v = start_of(g)
    s = initial_state(g, v, unit_coin(g, v, 11))
    try:
        want = CoinedWalk(g, coin).evolve(s, steps).amplitudes
    except UnsupportedDegreeError as exc:
        with pytest.raises(UnsupportedDegreeError) as got:
            evolve_trajectory(s, DecoherenceSpec(0.0), steps, seed=1, coin=coin)
        assert str(got.value) == str(exc)
        assert coin == "hadamard" and name in ("hypercube6", "glued4")
        return
    got, _ = evolve_trajectory(s, DecoherenceSpec(0.0), steps, seed=1, coin=coin)
    if name in ("line", "cycle") and coin != "dft":
        assert np.array_equal(got.amplitudes, want)
    else:
        assert np.max(np.abs(got.amplitudes - want)) <= 1e-15


def test_trajectory_is_deterministic_per_seed():
    g = build_cycle(9)
    s = initial_state(g, 0, "basis0")
    spec = DecoherenceSpec(0.5)
    a_final, a_rec = evolve_trajectory(s, spec, 30, seed=42)
    b_final, b_rec = evolve_trajectory(s, spec, 30, seed=42)
    assert np.array_equal(a_final.amplitudes, b_final.amplitudes)
    assert np.array_equal(a_rec, b_rec)
    c_final, c_rec = evolve_trajectory(s, spec, 30, seed=43)
    assert not np.array_equal(a_rec, c_rec)


def test_trajectory_record_structure():
    g = build_cycle(8)
    s = initial_state(g, 0, "symmetric")
    _, record = evolve_trajectory(s, DecoherenceSpec(1.0, "both"), 25, seed=3)
    assert np.array_equal(record[:, 0], np.arange(1, 26))
    assert np.all(record[:, 1] == 1)
    assert np.all(record[:, 2] >= 0)
    assert np.all(record[:, 3] >= 0)


def test_position_target_leaves_coin_unmeasured():
    g = build_cycle(8)
    s = initial_state(g, 0, "symmetric")
    _, record = evolve_trajectory(s, DecoherenceSpec(1.0, "position"), 12, seed=9)
    assert np.all(record[:, 2] >= 0)
    assert np.all(record[:, 3] == NOT_MEASURED)


def test_coin_target_leaves_position_unmeasured():
    g = build_cycle(8)
    s = initial_state(g, 0, "symmetric")
    _, record = evolve_trajectory(s, DecoherenceSpec(1.0, "coin"), 12, seed=9)
    assert np.all(record[:, 2] == NOT_MEASURED)
    assert np.all(record[:, 3] >= 0)


def test_collapse_preserves_phase():
    # full measurement keeps the surviving amplitude's phase: the collapsed
    # entry must equal a/|a| of the pre-collapse step output
    g = build_cycle(6)
    s = initial_state(g, 0, "symmetric")
    final, record = evolve_trajectory(s, DecoherenceSpec(1.0, "both"), 1, seed=12)
    k = int(np.flatnonzero(final.amplitudes)[0])
    stepped = CoinedWalk(g).step_amplitudes(s.amplitudes)
    assert final.amplitudes[k] == pytest.approx(
        stepped[k] / abs(stepped[k]), abs=1e-14)
    assert abs(final.amplitudes[k]) == pytest.approx(1.0, abs=1e-14)
    v = int(record[0, 2])
    assert g.offsets[v] + record[0, 3] == k


def test_trajectory_norm_stays_one():
    g = build_cycle(11)
    s = initial_state(g, 0, "basis0")
    for target in ("position", "coin", "both"):
        final, _ = evolve_trajectory(s, DecoherenceSpec(0.4, target), 200, seed=8)
        assert final.norm() == pytest.approx(1.0, abs=1e-10)


def test_trajectory_keep_record_off():
    g = build_cycle(5)
    s = initial_state(g, 0, "basis0")
    final, record = evolve_trajectory(s, DecoherenceSpec(0.2), 5, seed=1,
                                      keep_record=False)
    assert record is None
    assert final.norm() == pytest.approx(1.0, abs=1e-12)


def test_ensemble_mean_matches_density():
    # two-route check: Monte-Carlo trajectory average against the exact
    # density evolution, within 3 standard errors per position
    g = build_line(25)
    s = initial_state(g, g.params["origin"], "basis0")
    spec = DecoherenceSpec(0.2, "both")
    steps, trajectories = 10, 2000
    mean, stderr = run_ensemble(s, spec, steps, trajectories, seed=100)
    exact = evolve_density(to_density(s), spec, steps).position_distribution()
    # empirical stderr can hit zero in rarely-visited bins; per-trajectory
    # bin values lie in [0, 1], so q(1-q)/M bounds the variance from above
    floor = np.sqrt(exact * (1 - exact) / trajectories)
    se = np.maximum(stderr, floor) + 1e-12
    assert np.all(np.abs(mean - exact) <= 3 * se)
    assert mean.sum() == pytest.approx(1.0, abs=1e-10)


def test_ensemble_reproducible_and_seed_addressable():
    g = build_cycle(7)
    s = initial_state(g, 0, "basis0")
    spec = DecoherenceSpec(0.3)
    mean_a, _ = run_ensemble(s, spec, 8, 20, seed=50)
    mean_b, _ = run_ensemble(s, spec, 8, 20, seed=50)
    assert np.array_equal(mean_a, mean_b)
    # trajectory i of the ensemble is exactly the standalone walk at seed+i
    single, _ = evolve_trajectory(s, spec, 8, seed=53, keep_record=False)
    mean_c, _ = run_ensemble(s, spec, 8, 1, seed=53)
    assert np.allclose(mean_c, single.position_distribution(), atol=1e-14)


def test_ensemble_rejects_empty():
    g = build_cycle(4)
    s = initial_state(g, 0, "basis0")
    with pytest.raises(ValueError):
        run_ensemble(s, DecoherenceSpec(0.1), 3, 0, seed=1)


# --- batched trajectories keep every trajectory's seed stream ------------
#
# The serial loop below is the trajectory engine as it was before
# batching, on the full range: one generator per trajectory, the product
# of step_matrix() with the whole state, and one scalar random() call per
# step plus one per collapse. The batched engine must reproduce it bit for
# bit, amplitudes and records alike.

def serial_collapse(amps, graph, target, rng):
    if target == "both":
        cum = np.cumsum(np.abs(amps) ** 2)
        k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        out = np.zeros_like(amps)
        out[k] = amps[k] / abs(amps[k])
        v = int(graph.half_edge_vertex[k])
        return out, v, k - graph.offsets[v]
    if target == "position":
        probs = np.bincount(graph.half_edge_vertex, weights=np.abs(amps) ** 2,
                            minlength=graph.num_vertices)
        cum = np.cumsum(probs)
        v = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        out = np.zeros_like(amps)
        off, d = graph.offsets[v], graph.degree(v)
        out[off:off + d] = amps[off:off + d] / np.sqrt(probs[v])
        return out, v, NOT_MEASURED
    ids = np.array([c for v in range(graph.num_vertices) for c in range(graph.degree(v))])
    probs = np.bincount(ids, weights=np.abs(amps) ** 2)
    cum = np.cumsum(probs)
    c = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    out = np.where(ids == c, amps, 0.0) / np.sqrt(probs[c])
    return out, NOT_MEASURED, c


def serial_trajectory(state0, spec, steps, seed, coin):
    graph = state0.graph
    u, undefined = defined_step(graph, coin)
    rng = np.random.default_rng(seed)
    amps = state0.amplitudes.copy()
    record = np.empty((steps, 4), dtype=np.int64)
    for t in range(1, steps + 1):
        refuse_undefined(graph, coin, undefined[amps[undefined] != 0])
        amps = u @ amps
        measured = rng.random() < spec.p
        pos = coin_out = NOT_MEASURED
        if measured:
            amps, pos, coin_out = serial_collapse(amps, graph, spec.target, rng)
        record[t - 1] = (t, int(measured), pos, coin_out)
    return amps, record


def serial_ensemble(state0, spec, steps, trajectories, seed, coin):
    n = state0.graph.num_vertices
    total, total_sq = np.zeros(n), np.zeros(n)
    for i in range(trajectories):
        amps, _ = serial_trajectory(state0, spec, steps, seed + i, coin)
        p = PureState(state0.graph, amps).position_distribution()
        total += p
        total_sq += p * p
    mean = total / trajectories
    var = np.maximum(total_sq / trajectories - mean ** 2, 0.0)
    return mean, np.sqrt(var / trajectories)


def start_of(graph):
    return graph.params["origin"] if graph.kind == "line" else 0


def held_on(support, amps):
    """Full-width rows of amplitudes held on ``support``, one column each."""
    return np.ascontiguousarray(amps[:, support].T)


def widest_set(walk, start, steps):
    """The most half-edges a chunk from ``start`` is held on in ``steps``
    steps, max |S_t| over t <= steps."""
    start = np.asarray(start, dtype=np.int32)
    return max(map(len, plan_sets(decoherence._restriction(walk), start, steps)))


def chunk_width(walk, start, steps):
    """The width ``run_ensemble`` sizes its chunks by: the widest set, or
    half the vertex count when the rows' float64 distributions take more."""
    return max(widest_set(walk, start, steps), -(-walk.graph.num_vertices // 2))


def spread(support, held, n):
    """The full-width rows of the states held on ``support``, +0 elsewhere."""
    amps = np.zeros((held.shape[1], n), dtype=np.complex128)
    amps[:, support] = held.T
    return amps


@pytest.mark.parametrize("name", sorted(TRAJECTORY_GRAPHS))
@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_step_rows_matches_single_rows(name, family):
    # five states held on the reachable set S_t take the trajectories'
    # step, the sparse product with their set's plan. Given the same
    # operands (the states spread to full width), the full-range product
    # with step_matrix() has its bits on S_{t+1} and zeros outside. Lone
    # rows stepped by step_amplitudes at full width all along have its
    # values on the line and cycle with a real coin; elsewhere a sum of
    # three terms or a complex coin may round otherwise
    g = TRAJECTORY_GRAPHS[name]()
    n = g.half_edge_count
    walk = CoinedWalk(g, family)
    u, undefined = defined_step(g, family)
    build = decoherence._restriction(walk)
    rng = np.random.default_rng(3)
    support = np.sort(rng.choice(n, size=4, replace=False))
    singles = np.zeros((5, n), dtype=np.complex128)
    singles[:, support] = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    singles[:, support[0]] = complex(-0.0, 0.0)
    rows = held_on(support, singles)
    raised = 0
    for _ in range(8):
        reached, indptr, indices, data, blocked = build(support)
        if blocked is not None:
            assert np.array_equal(support[blocked], np.intersect1d(support, undefined))
        try:
            want = [walk.step_amplitudes(amps) for amps in spread(support, rows, n)]
        except UnsupportedDegreeError as exc:
            # amplitude sits on a vertex without a coin: the trajectories'
            # check raises the same error; with none there, both go on
            with pytest.raises(UnsupportedDegreeError) as batched:
                decoherence._refuse_undefined(walk, support[blocked[rows[blocked].any(axis=1)]])
            assert str(batched.value) == str(exc)
            assert np.any(singles[:, undefined])
            singles[:, undefined] = 0.0
            rows = held_on(support, singles)
            raised += 1
            continue
        full = [u @ amps for amps in spread(support, rows, n)]
        singles = np.array([walk.step_amplitudes(single) for single in singles])
        rows = decoherence._sparse_product(indptr, indices, data, rows,
                                           np.empty((len(reached), 5), dtype=np.complex128))
        support = reached
        outside = np.setdiff1d(np.arange(n), support)
        for r, (product, step, single) in enumerate(zip(full, want, singles)):
            assert same_bits(rows[:, r].copy(), product[support])
            assert not np.any(product[outside]) and not np.any(step[outside])
            assert not np.any(single[outside])
            assert np.max(np.abs(rows[:, r] - step[support]), initial=0.0) <= 1e-15
            if name in ("line", "cycle") and family != "dft":
                assert np.array_equal(rows[:, r], single[support])
            else:
                assert np.max(np.abs(rows[:, r] - single[support]), initial=0.0) <= 1e-14
    # every graph but the cycle has vertices without a Hadamard coin
    assert bool(raised) == (family == "hadamard" and name != "cycle")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(TRAJECTORY_GRAPHS)),
       family=st.sampled_from(COIN_FAMILIES),
       target=st.sampled_from(MEASUREMENT_TARGETS),
       p=st.sampled_from([0.0, 0.15, 0.5, 1.0]), steps=st.integers(0, 12),
       seed=st.integers(0, 2 ** 31), trajectories=st.integers(1, 7),
       chunk_rows=st.integers(1, 3), block=st.integers(1, 4))
def test_batched_trajectories_match_serial_loop(name, family, target, p, steps, seed,
                                                trajectories, chunk_rows, block):
    g = TRAJECTORY_GRAPHS[name]()
    d = g.degree(start_of(g))
    # complex amplitudes from the start, whatever the coin family
    s = initial_state(g, start_of(g), np.exp(1j * np.arange(d)) / np.sqrt(d))
    spec = DecoherenceSpec(p, target)
    try:
        reference = [serial_trajectory(s, spec, steps, seed + i, family)
                     for i in range(trajectories)]
    except UnsupportedDegreeError as exc:
        with pytest.raises(UnsupportedDegreeError) as batched:
            run_ensemble(s, spec, steps, trajectories, seed, family)
        assert str(batched.value) == str(exc)
        return
    # tiny chunks and draw blocks: several chunks per ensemble, and rows
    # that refill their blocks at different steps
    walk = CoinedWalk(g, family)
    support = np.flatnonzero(s.amplitudes)
    width = chunk_width(walk, support, steps)
    with mock.patch.object(decoherence, "_CHUNK_BYTES", 16 * width * chunk_rows), \
            mock.patch.object(decoherence, "_DRAW_BLOCK", block):
        final, held, records = decoherence._trajectories(
            walk, decoherence._StepPlans(decoherence._restriction(walk), support), steps,
            s.amplitudes[support], spec, range(seed, seed + trajectories), True)
        amps = spread(final, held, g.half_edge_count)
        for i, (want_amps, want_record) in enumerate(reference):
            single, record = evolve_trajectory(s, spec, steps, seed + i, family)
            assert same_bits(amps[i], want_amps)
            assert np.array_equal(records[i], want_record)
            assert same_bits(single.amplitudes, want_amps)
            assert np.array_equal(record, want_record)
        mean, stderr = run_ensemble(s, spec, steps, trajectories, seed, family)
    want_mean, want_stderr = serial_ensemble(s, spec, steps, trajectories, seed, family)
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(stderr, want_stderr)


def test_ensemble_matches_serial_across_default_chunk():
    g = build_line(101)
    s = initial_state(g, g.params["origin"], "symmetric")
    spec = DecoherenceSpec(0.1, "both")
    width = chunk_width(CoinedWalk(g), np.flatnonzero(s.amplitudes), 20)
    trajectories = decoherence._chunk_rows(width) + 2
    mean, stderr = run_ensemble(s, spec, 20, trajectories, seed=17)
    want_mean, want_stderr = serial_ensemble(s, spec, 20, trajectories, 17, "default")
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(stderr, want_stderr)


@pytest.mark.parametrize("g,steps", [(build_line(41), 12), (build_cycle(7), 30)],
                         ids=["line", "cycle"])
def test_ensemble_plans_each_step_once_for_all_chunks(g, steps):
    # four chunks of three rows, sized by the widest set they are held on,
    # share one plan per step; a set met again (the cycle's, once they
    # cover it) reuses its plan
    s = initial_state(g, start_of(g), "uniform")
    walk = CoinedWalk(g)
    sets, support = set(), np.flatnonzero(s.amplitudes).astype(np.int32)
    width = chunk_width(walk, support, steps)
    build = decoherence._restriction(walk)
    for _ in range(steps):
        sets.add(support.tobytes())
        support = build(support)[0]
    spec = DecoherenceSpec(0.2, "both")
    with mock.patch.object(decoherence, "_CHUNK_BYTES", 16 * width * 3), \
            mock.patch.object(decoherence, "_step_plan",
                              wraps=decoherence._step_plan) as planned, \
            mock.patch.object(decoherence, "_trajectories",
                              wraps=decoherence._trajectories) as chunks:
        assert -(-10 // decoherence._chunk_rows(width)) == 4
        mean, stderr = run_ensemble(s, spec, steps, 10, seed=5)
    assert [len(call.args[5]) for call in chunks.call_args_list] == [3, 3, 3, 1]
    assert planned.call_count == len(sets)
    assert len(sets) == steps if g.kind == "line" else len(sets) < steps
    want_mean, want_stderr = serial_ensemble(s, spec, steps, 10, 5, "default")
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(stderr, want_stderr)


def test_step_plans_hold_at_most_48_bytes_per_reached_half_edge():
    # a reached half-edge keeps its place in the set and its row pointer
    # (int32), and one int32 column and complex coefficient per term: two
    # terms where S_t holds both half-edges of its source vertex, one on the
    # front of the walk
    g = build_line(101)
    s = initial_state(g, g.params["origin"], "symmetric")
    start = np.flatnonzero(s.amplitudes).astype(np.int32)
    plans = list(itertools.islice(
        decoherence._StepPlans(decoherence._restriction(CoinedWalk(g)), start), 50))
    reached = terms = 0
    for support, indptr, indices, data, blocked in plans:
        assert support.dtype == indptr.dtype == indices.dtype == np.int32
        assert data.dtype == np.complex128 and blocked is None
        assert indptr.shape == (len(support) + 1,) and data.shape == indices.shape
        reached += len(support)
        terms += len(indices)
    assert (reached, terms) == (2550, 4904)
    assert sum(a.nbytes for plan in plans for a in plan[:4]) == \
        8 * reached + 4 * 50 + 20 * terms == 118_680


@pytest.mark.parametrize("budget,kept", [(0, 0), (1000, 4), (118_679, 49), (118_680, 50)])
def test_step_plans_keep_the_first_steps_that_fit(budget, kept):
    # the first pass keeps the plans of the first steps while they fit
    # (step t plans 20 + 96 t bytes, 100 at t = 0); a second pass yields
    # those and plans the later steps again, to the same sets and entries
    g = build_line(101)
    s = initial_state(g, g.params["origin"], "symmetric")
    start = np.flatnonzero(s.amplitudes).astype(np.int32)
    plans = decoherence._StepPlans(decoherence._restriction(CoinedWalk(g)), start, budget)
    first = list(itertools.islice(plans, 50))
    assert len(plans.kept) == kept
    assert sum(a.nbytes for plan in plans.kept for a in plan[:4]) <= budget
    second = list(itertools.islice(plans, 50))
    assert all(a is b for a, b in zip(first[:kept], second))
    for a, b in zip(first, second):
        assert all(np.array_equal(x, y) for x, y in zip(a[:4], b[:4]))


def test_long_line_ensemble_keeps_its_plans_under_the_budget():
    # 1,000 steps on a line plan 48 MB. With a 1 MiB budget the first
    # chunk of two trajectories keeps 1 MiB of them; the other three then
    # step as one chunk (a quarter of the budget holds three rows of
    # H = 4800), which plans the later steps again once
    g = build_line(2401)
    s = initial_state(g, g.params["origin"], "symmetric")
    spec = DecoherenceSpec(0.01, "both")
    assert decoherence._chunk_rows(g.half_edge_count) == 2
    plan = decoherence._step_plan
    calls = [0]

    def counted(*args):
        # a count alone: a mock would keep every set it was called with
        calls[0] += 1
        return plan(*args)
    with mock.patch.object(decoherence, "_PLAN_BYTES", 1 << 20), \
            mock.patch.object(decoherence, "_step_plan", counted):
        tracemalloc.start()
        mean, stderr = run_ensemble(s, spec, 1000, 5, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # step t plans 20 + 96 t bytes: 148 steps fit in 1 MiB
    assert calls[0] == 1000 + 852
    assert peak < 3 << 20
    want_mean, want_stderr = serial_ensemble(s, spec, 1000, 5, 11, "default")
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(stderr, want_stderr)


def test_ensemble_sizes_its_chunks_by_the_widest_set():
    # 50 steps from the middle of line(101) reach at most 100 of its 200
    # half-edges, so 200 trajectories step as chunks of 122 and 78 rows,
    # each held within the chunk bytes. Plans past a smaller budget leave
    # the sets past it unknown: chunks of H rows
    g = build_line(101)
    s = initial_state(g, g.params["origin"], "symmetric")
    spec = DecoherenceSpec(0.1, "both")
    assert widest_set(CoinedWalk(g), np.flatnonzero(s.amplitudes), 50) == 100
    assert decoherence._chunk_rows(g.half_edge_count) == 61
    want_mean, want_stderr = serial_ensemble(s, spec, 50, 200, 7, "default")
    for budget, sizes, builds in [(decoherence._PLAN_BYTES, [122, 78], 50),
                                  (20_000, [61, 61, 61, 17], 50 + 3 * 30)]:
        with mock.patch.object(decoherence, "_PLAN_BYTES", budget), \
                mock.patch.object(decoherence, "_sparse_product",
                                  wraps=decoherence._sparse_product) as stepped, \
                mock.patch.object(decoherence, "_step_plan",
                                  wraps=decoherence._step_plan) as planned, \
                mock.patch.object(decoherence, "_trajectories",
                                  wraps=decoherence._trajectories) as chunks:
            mean, stderr = run_ensemble(s, spec, 50, 200, seed=7)
        assert [len(call.args[5]) for call in chunks.call_args_list] == sizes
        assert stepped.call_count == 50 * len(sizes)
        held = [a for call in stepped.call_args_list for a in call.args[3:]]
        assert max(a.nbytes for a in held) <= decoherence._CHUNK_BYTES
        # step t plans 20 + 96 t bytes: 20 steps fit in 20,000, and each
        # chunk after the first plans the other 30 again
        assert planned.call_count == builds
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(stderr, want_stderr)


def test_short_walk_on_a_long_line_keeps_its_distributions_in_the_chunk_bytes():
    # 2 steps from the middle of line(2001) reach 4 of its 4,000
    # half-edges, but each row's distribution takes 8 bytes a vertex: the
    # chunks are sized by half the vertex count, 12 rows, not by the set
    g = build_line(2001)
    s = initial_state(g, g.params["origin"], "symmetric")
    spec = DecoherenceSpec(0.5, "position")
    assert widest_set(CoinedWalk(g), np.flatnonzero(s.amplitudes), 2) == 4
    assert decoherence._chunk_rows(-(-g.num_vertices // 2)) == 12
    peaks = []
    for trajectories in (1, 300):
        with mock.patch.object(decoherence, "_trajectories",
                               wraps=decoherence._trajectories) as chunks:
            tracemalloc.start()
            mean, stderr = run_ensemble(s, spec, 2, trajectories, seed=9)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    assert max(len(call.args[5]) for call in chunks.call_args_list) == 12
    # over a lone trajectory's run: the distributions, their squares and
    # the chunk's amplitudes and temporaries, each within the chunk bytes
    assert peaks[1] - peaks[0] <= 4 * decoherence._CHUNK_BYTES
    want_mean, want_stderr = serial_ensemble(s, spec, 2, 300, 9, "default")
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(stderr, want_stderr)


def test_one_chunk_ensemble_keeps_no_plan():
    # a run that fits one chunk of H rows plans with no budget and never
    # weighs a plan; one more trajectory gives the plans their budget
    g = build_line(101)
    s = initial_state(g, g.params["origin"], "symmetric")
    spec = DecoherenceSpec(0.1, "both")
    assert decoherence._chunk_rows(g.half_edge_count) == 61
    for trajectories, budget in [(61, 0), (62, decoherence._PLAN_BYTES)]:
        with mock.patch.object(decoherence._StepPlans, "__init__", autospec=True,
                               side_effect=decoherence._StepPlans.__init__) as made:
            run_ensemble(s, spec, 50, trajectories, seed=3)
        assert made.call_count == 1 and made.call_args.args[3] == budget
        plans = made.call_args.args[0]
        weighed = sum(a.nbytes for plan in plans.kept for a in plan if a is not None)
        # with no budget, no room is counted down
        assert plans.room == (budget - weighed if budget else -1)
        assert len(plans.kept) == (50 if budget else 0)


def test_row_streams_refill_per_row():
    # rows read at different rates and refill at different times, yet each
    # sees exactly its own generator's scalar sequence
    streams = RowStreams([4, 5, 6], uniform, 3)
    scalar = [np.random.default_rng(s) for s in (4, 5, 6)]
    pick = np.random.default_rng(1)
    for _ in range(50):
        rows = np.flatnonzero(pick.random(3) < 0.6)
        got = streams.next(rows)
        assert got.tolist() == [scalar[r].random() for r in rows]
    with pytest.raises(ValueError, match="block"):
        RowStreams([4], uniform, 0)


def test_row_streams_refill_per_row_across_2_32():
    # the same, for seeds on both sides of 2^32 (one and two entropy words)
    seeds = range(2 ** 32 - 2, 2 ** 32 + 2)
    streams = RowStreams(seeds, uniform, 3)
    scalar = [np.random.default_rng(s) for s in seeds]
    pick = np.random.default_rng(1)
    for _ in range(50):
        rows = np.flatnonzero(pick.random(4) < 0.6)
        got = streams.next(rows)
        assert got.tolist() == [scalar[r].random() for r in rows]


def test_trajectories_match_serial_across_seed_2_32():
    g = build_line(21)
    s = initial_state(g, g.params["origin"], "symmetric")
    spec = DecoherenceSpec(0.3, "both")
    seed = 2 ** 32 - 2
    with mock.patch.object(decoherence, "_DRAW_BLOCK", 3):
        single, record = evolve_trajectory(s, spec, 8, 2 ** 32)
        mean, stderr = run_ensemble(s, spec, 8, 5, seed)
    want_amps, want_record = serial_trajectory(s, spec, 8, 2 ** 32, "default")
    assert np.array_equal(single.amplitudes, want_amps)
    assert np.array_equal(record, want_record)
    want_mean, want_stderr = serial_ensemble(s, spec, 8, 5, seed, "default")
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(stderr, want_stderr)
