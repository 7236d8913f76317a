import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalksim import decoherence

from qwalksim.classical import evolve_classical_exact, iter_classical_distributions
from qwalksim.coined import COIN_FAMILIES, CoinedWalk, PureState, coin_matrix, initial_state
from qwalksim.decoherence import (DENSITY_DIMENSION_LIMIT, NOT_MEASURED,
                                  DecoherenceSpec, DensityState, apply_channel,
                                  evolve_density, evolve_trajectory,
                                  iter_density_steps, record_to_csv,
                                  MEASUREMENT_TARGETS, run_ensemble, to_density)
from qwalksim.errors import InvariantViolationError, UnsupportedDegreeError
from qwalksim.graphs import (GlueSpec, build_cycle, build_glued_trees,
                             build_hypercube, build_line)
from qwalksim.streams import RowStreams


def random_density(graph, seed):
    rng = np.random.default_rng(seed)
    n = graph.half_edge_count
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = b @ b.conj().T
    return DensityState(graph, m / np.trace(m).real)


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
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho.matrix, rho.matrix.conj().T)


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


def test_check_accepts_valid_state():
    g = build_cycle(4)
    random_density(g, 3).check()


def test_check_rejects_non_hermitian():
    g = build_cycle(4)
    rho = random_density(g, 0)
    rho.matrix[0, 1] += 1e-3
    with pytest.raises(InvariantViolationError):
        rho.check()


def test_check_rejects_bad_trace():
    g = build_cycle(4)
    rho = random_density(g, 1)
    rho.matrix *= 1.5
    with pytest.raises(InvariantViolationError):
        rho.check()


def test_check_rejects_negative_eigenvalue():
    g = build_cycle(4)
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0], m[1, 1] = 1.5, -0.5
    with pytest.raises(InvariantViolationError):
        DensityState(g, m).check()


def test_copy_is_independent():
    g = build_cycle(4)
    rho = random_density(g, 5)
    dup = rho.copy()
    dup.matrix[0, 0] += 1.0
    assert rho.matrix[0, 0] != dup.matrix[0, 0]


# --- dephasing channel ---------------------------------------------------

def test_channel_identity_at_p_zero():
    g = build_cycle(5)
    rho = random_density(g, 7)
    out = apply_channel(rho, DecoherenceSpec(0.0, "both"))
    assert np.array_equal(out.matrix, rho.matrix)


def test_channel_full_measurement_kills_off_diagonals():
    g = build_cycle(5)
    out = apply_channel(random_density(g, 8), DecoherenceSpec(1.0, "both"))
    off = out.matrix - np.diag(np.diag(out.matrix))
    assert np.all(off == 0.0)


def test_channel_preserves_trace_exactly():
    g = build_line(7)
    rho = random_density(g, 9)
    for target in ("position", "coin", "both"):
        out = apply_channel(rho, DecoherenceSpec(0.37, target))
        # same-sector factors are exactly 1, so the diagonal is untouched
        assert np.array_equal(np.diag(out.matrix), np.diag(rho.matrix))


def test_position_measurement_keeps_coin_coherence():
    g = build_cycle(5)
    rho = random_density(g, 10)
    out = apply_channel(rho, DecoherenceSpec(1.0, "position"))
    for v in range(g.num_vertices):
        lo = g.coin_offset(v)
        hi = lo + g.degree(v)
        assert np.array_equal(out.matrix[lo:hi, lo:hi], rho.matrix[lo:hi, lo:hi])
        assert np.all(out.matrix[lo:hi, hi:] == 0.0)


def test_channel_matches_explicit_projector_sum():
    # independent route: (1-p) rho + p * sum_k P_k rho P_k with literal
    # diagonal projectors, one per position outcome
    g = build_line(7)
    rho = random_density(g, 11)
    p = 0.42
    acc = np.zeros_like(rho.matrix)
    for v in range(g.num_vertices):
        mask = np.zeros(g.half_edge_count)
        lo = g.coin_offset(v)
        mask[lo:lo + g.degree(v)] = 1.0
        proj = np.diag(mask)
        acc += proj @ rho.matrix @ proj
    expected = (1 - p) * rho.matrix + p * acc
    out = apply_channel(rho, DecoherenceSpec(p, "position"))
    assert np.allclose(out.matrix, expected, atol=1e-14)


def test_coin_channel_matches_explicit_projector_sum():
    g = build_cycle(6)
    rho = random_density(g, 12)
    p = 0.6
    acc = np.zeros_like(rho.matrix)
    for c in range(2):
        mask = np.zeros(g.half_edge_count)
        for v in range(g.num_vertices):
            mask[g.half_edge(v, c)] = 1.0
        proj = np.diag(mask)
        acc += proj @ rho.matrix @ proj
    expected = (1 - p) * rho.matrix + p * acc
    out = apply_channel(rho, DecoherenceSpec(p, "coin"))
    assert np.allclose(out.matrix, expected, atol=1e-14)


# --- density evolution ---------------------------------------------------

def test_density_evolution_matches_pure_at_p_zero():
    g = build_line(21)
    s = initial_state(g, g.params["origin"], "symmetric")
    rho = evolve_density(to_density(s), DecoherenceSpec(0.0), 8)
    pure = CoinedWalk(g).evolve(s, 8)
    assert np.allclose(rho.matrix, to_density(pure).matrix, atol=1e-12)


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
    assert pure_run.purity() == pytest.approx(1.0, abs=1e-10)
    last = 1.0
    for rho, _ in zip(iter_density_steps(to_density(s), DecoherenceSpec(0.2)),
                      range(20)):
        current = rho.purity()
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
        assert np.allclose(stepped.matrix, direct.matrix, atol=1e-13)


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
        m = apply_channel(DensityState(g, u @ m @ u.conj().T), spec).matrix
        got = next(steps).matrix
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
        m = apply_channel(DensityState(g, u @ m @ u.conj().T), spec).matrix
        assert np.max(np.abs(next(steps).matrix - m)) < 1e-12 * np.max(np.abs(m))


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_evolve_density_matches_dense_reference(steps):
    g = build_glued_trees(2, GlueSpec("random-cycle", seed=3))
    spec = DecoherenceSpec(0.2, "position")
    m = random_square(g, 4)
    u = dense_step_operator(g, "default")
    want = m
    for _ in range(steps):
        want = apply_channel(DensityState(g, u @ want @ u.conj().T), spec).matrix
    got = evolve_density(DensityState(g, m), spec, steps).matrix
    assert got.flags.c_contiguous
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_iter_density_steps_yields_independent_copies():
    g = build_cycle(5)
    spec = DecoherenceSpec(0.1, "both")
    rho0 = random_density(g, 6)
    before = rho0.matrix.copy()
    it = iter_density_steps(rho0, spec)
    first = next(it)
    first.matrix[:] = 0.0
    second = next(it)
    assert np.array_equal(rho0.matrix, before)
    direct = evolve_density(rho0, spec, 2)
    assert np.allclose(second.matrix, direct.matrix, atol=1e-14)


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
    assert g.coin_offset(v) + record[0, 3] == k


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


def test_record_csv_format():
    record = np.array([[1, 0, -1, -1], [2, 1, 4, 0]], dtype=np.int64)
    text = record_to_csv(record)
    assert text == "step,measured,position,coin\n1,0,-1,-1\n2,1,4,0\n"


# --- batched trajectories keep every trajectory's seed stream ------------
#
# The serial loop below is the trajectory engine as it was before
# batching: one generator per trajectory, the 1-D step, and one scalar
# random() call per step plus one per collapse. The batched engine must
# reproduce it bit for bit, amplitudes and records alike.

def serial_collapse(amps, graph, target, rng):
    if target == "both":
        cum = np.cumsum(np.abs(amps) ** 2)
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
    ids = np.array([c for v in range(graph.num_vertices) for c in range(graph.degree(v))])
    probs = np.bincount(ids, weights=np.abs(amps) ** 2)
    cum = np.cumsum(probs)
    c = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    out = np.where(ids == c, amps, 0.0) / np.sqrt(probs[c])
    return out, NOT_MEASURED, c


def serial_trajectory(state0, spec, steps, seed, coin):
    graph = state0.graph
    walk = CoinedWalk(graph, coin)
    rng = np.random.default_rng(seed)
    amps = state0.amplitudes.copy()
    record = np.empty((steps, 4), dtype=np.int64)
    for t in range(1, steps + 1):
        amps = walk.step_amplitudes(amps)
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


TRAJECTORY_GRAPHS = {
    "line": lambda: build_line(41),
    "cycle": lambda: build_cycle(7),
    "hypercube": lambda: build_hypercube(3),
    "glued-random": lambda: build_glued_trees(2, GlueSpec("random-cycle", 5)),
}


def start_of(graph):
    return graph.params["origin"] if graph.kind == "line" else 0


@pytest.mark.parametrize("name", sorted(TRAJECTORY_GRAPHS))
@pytest.mark.parametrize("family", COIN_FAMILIES)
def test_step_rows_matches_single_rows(name, family):
    g = TRAJECTORY_GRAPHS[name]()
    walk = CoinedWalk(g, family)
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(5, g.half_edge_count)) + 1j * rng.normal(size=(5, g.half_edge_count))
    try:
        singles = [walk.step_amplitudes(r) for r in rows]
    except UnsupportedDegreeError:
        with pytest.raises(UnsupportedDegreeError):
            walk.step_rows(rows)
        return
    for _ in range(6):
        rows = walk.step_rows(rows)
        for r, single in enumerate(singles):
            assert np.array_equal(rows[r], single)
        singles = [walk.step_amplitudes(s) for s in singles]


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
    except UnsupportedDegreeError:
        with pytest.raises(UnsupportedDegreeError):
            run_ensemble(s, spec, steps, trajectories, seed, family)
        return
    # tiny chunks and draw blocks: several chunks per ensemble, and rows
    # that refill their blocks at different steps
    with mock.patch.object(decoherence, "_CHUNK_BYTES", 16 * g.half_edge_count * chunk_rows), \
            mock.patch.object(decoherence, "_DRAW_BLOCK", block):
        walk = CoinedWalk(g, family)
        amps, records = decoherence._trajectories(
            walk, s.amplitudes, spec, steps, range(seed, seed + trajectories), True)
        for i, (want_amps, want_record) in enumerate(reference):
            single, record = evolve_trajectory(s, spec, steps, seed + i, family)
            assert np.array_equal(amps[i], want_amps)
            assert np.array_equal(records[i], want_record)
            assert np.array_equal(single.amplitudes, want_amps)
            assert np.array_equal(record, want_record)
        mean, stderr = run_ensemble(s, spec, steps, trajectories, seed, family)
    want_mean, want_stderr = serial_ensemble(s, spec, steps, trajectories, seed, family)
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(stderr, want_stderr)


def test_ensemble_matches_serial_across_default_chunk():
    g = build_line(101)
    s = initial_state(g, g.params["origin"], "symmetric")
    spec = DecoherenceSpec(0.1, "both")
    trajectories = decoherence._chunk_rows(g.half_edge_count) + 2
    mean, stderr = run_ensemble(s, spec, 20, trajectories, seed=17)
    want_mean, want_stderr = serial_ensemble(s, spec, 20, trajectories, 17, "default")
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(stderr, want_stderr)


def test_row_streams_refill_per_row():
    # rows read at different rates and refill at different times, yet each
    # sees exactly its own generator's scalar sequence
    streams = RowStreams([4, 5, 6], lambda rng, n: rng.random(n), 3)
    scalar = [np.random.default_rng(s) for s in (4, 5, 6)]
    pick = np.random.default_rng(1)
    for _ in range(50):
        rows = np.flatnonzero(pick.random(3) < 0.6)
        got = streams.next(rows)
        assert got.tolist() == [scalar[r].random() for r in rows]
