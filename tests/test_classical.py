import itertools
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalksim
from qwalksim import classical, streams
from qwalksim.classical import (HittingTimeResult, evolve_classical_exact,
                                hitting_time, hitting_time_exact,
                                iter_classical_distributions,
                                sample_endpoint_histogram, sample_walk)
from qwalksim.graphs import (GlueSpec, Graph, build_cycle, build_glued_trees,
                             build_hypercube, build_line,
                             glued_trees_entrance_exit)
from qwalksim.stats import position_distribution, std_dev, total_variation
from qwalksim.streams import RowStreams, uint32

from test_half_edge_table import same_bits


# --- transition matrix ---------------------------------------------------
#
# Row v of the chain's transition matrix is one step from the delta at v.
# The dense chain below is the one stepped before the half-edge table:
# T = A / degree, then p @ T.

def transition_rows(g):
    return np.array([next(iter_classical_distributions(g, v))
                     for v in range(g.num_vertices)])


def dense_chain(g, start, steps):
    t = g.adjacency_matrix() / g.degrees[:, None]
    p = np.zeros(g.num_vertices)
    p[start] = 1.0
    series = []
    for _ in range(steps):
        p = p @ t
        series.append(p)
    return np.array(series)


def dense_hitting_time(g, start, target):
    t = g.adjacency_matrix() / g.degrees[:, None]
    transient = np.array([v for v in range(g.num_vertices) if v != target])
    q = t[np.ix_(transient, transient)]
    tau = scipy.linalg.solve(np.eye(len(transient)) - q, np.ones(len(transient)))
    return float(tau[int(np.searchsorted(transient, start))])


def test_transition_matrix_line():
    t = transition_rows(build_line(5))
    assert t[0, 1] == 1.0  # reflecting endpoint
    assert t[2, 1] == t[2, 3] == 0.5
    assert np.allclose(t.sum(axis=1), 1.0)


def test_transition_matrix_cycle_and_hypercube():
    t = transition_rows(build_cycle(4))
    assert t[0, 1] == t[0, 3] == 0.5
    t = transition_rows(build_hypercube(3))
    assert np.allclose(t[t > 0], 1.0 / 3.0)
    assert np.allclose(t.sum(axis=1), 1.0)


def test_transition_matrix_rejects_isolated_vertex():
    # refused when called, before anything is iterated
    g = Graph(2, ())
    for call in (lambda: iter_classical_distributions(g, 0),
                 lambda: evolve_classical_exact(g, 0, 1),
                 lambda: hitting_time_exact(g, 0, 1)):
        with pytest.raises(ValueError, match="isolated vertex"):
            call()


@pytest.mark.parametrize("g, start, steps", [
    (build_line(201), 100, 100),
    (build_cycle(15), 0, 3000),
    (build_cycle(16), 3, 3000),
])
def test_chain_has_the_bits_of_the_dense_chain_at_degree_two(g, start, steps):
    # two terms reach each vertex, and their sum does not depend on the order
    got = np.array(list(itertools.islice(iter_classical_distributions(g, start), steps)))
    assert same_bits(got, dense_chain(g, start, steps))


@pytest.mark.parametrize("g, steps", [
    (build_hypercube(8), 61),
    (build_glued_trees(5, GlueSpec()), 81),
    (build_glued_trees(5, GlueSpec("random-cycle", 4)), 81),
])
def test_chain_agrees_with_the_dense_chain_at_higher_degree(g, steps):
    # BLAS adds three or more terms in its own order
    got = np.array(list(itertools.islice(iter_classical_distributions(g, 0), steps)))
    assert np.max(np.abs(got - dense_chain(g, 0, steps))) <= 1e-15


def test_chain_allocates_no_vertex_by_vertex_array():
    g = build_glued_trees(12, GlueSpec())  # 16,382 vertices: V x V floats take 2.1 GB
    tracemalloc.start()
    try:
        dist = evolve_classical_exact(g, 0, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_yielded_distributions_are_the_callers_own():
    g = build_cycle(7)
    it = iter_classical_distributions(g, 0)
    first = next(it)
    first[:] = 0.0
    assert same_bits(next(it), dense_chain(g, 0, 2)[1])


# --- exact evolution ------------------------------------------------------

def test_two_step_binomial():
    g = build_line(7)
    origin = g.params["origin"]
    dist = evolve_classical_exact(g, origin, 2)
    by_x = {int(g.coordinates[v]): dist.probabilities[v]
            for v in range(g.num_vertices)}
    assert by_x[-2] == pytest.approx(0.25, abs=1e-14)
    assert by_x[0] == pytest.approx(0.5, abs=1e-14)
    assert by_x[2] == pytest.approx(0.25, abs=1e-14)
    assert by_x[-1] == by_x[1] == 0.0


def test_zero_steps_is_delta():
    g = build_cycle(5)
    dist = evolve_classical_exact(g, 3, 0)
    expected = np.zeros(5)
    expected[3] = 1.0
    assert np.array_equal(dist.probabilities, expected)


def test_spread_grows_as_square_root():
    # binomial variance after t balanced +-1 moves is exactly t
    for t in (4, 16, 64):
        g = build_line(2 * t + 1)
        dist = evolve_classical_exact(g, g.params["origin"], t)
        sigma = std_dev(position_distribution(dist))
        assert sigma == pytest.approx(np.sqrt(t), abs=1e-10)


def test_iter_matches_direct_evolution():
    g = build_cycle(6)
    it = iter_classical_distributions(g, 2)
    for steps in range(1, 8):
        stepped = next(it)
        direct = evolve_classical_exact(g, 2, steps).probabilities
        assert np.allclose(stepped, direct, atol=1e-14)


def test_uniform_is_stationary_on_regular_graphs():
    for g in (build_cycle(9), build_hypercube(4)):
        t = transition_rows(g)
        uniform = np.full(g.num_vertices, 1.0 / g.num_vertices)
        assert np.allclose(uniform @ t, uniform, atol=1e-14)


def test_evolution_validates_input():
    g = build_cycle(5)
    with pytest.raises(ValueError):
        evolve_classical_exact(g, 9, 1)
    with pytest.raises(ValueError):
        evolve_classical_exact(g, 0, -1)


# --- sampled walks --------------------------------------------------------

def test_sample_walk_path_is_valid():
    g = build_cycle(9)
    path = sample_walk(g, 4, 50, seed=3)
    assert path.shape == (51,)
    assert path[0] == 4
    for a, b in zip(path, path[1:]):
        assert b in g.neighbors(int(a))


def test_sample_walk_deterministic():
    g = build_line(21)
    a = sample_walk(g, 10, 30, seed=77)
    b = sample_walk(g, 10, 30, seed=77)
    c = sample_walk(g, 10, 30, seed=78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_endpoint_histogram_close_to_exact():
    g = build_line(41)
    origin = g.params["origin"]
    hist = sample_endpoint_histogram(g, origin, 20, num_samples=10000, seed=5)
    exact = evolve_classical_exact(g, origin, 20).probabilities
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)
    assert total_variation(hist, exact) < 0.02
    # parity: odd coordinates are unreachable after an even number of steps
    odd = np.flatnonzero(g.coordinates.astype(int) % 2 != 0)
    assert np.all(hist[odd] == 0.0)


def test_endpoint_histogram_validates():
    g = build_cycle(4)
    with pytest.raises(ValueError):
        sample_endpoint_histogram(g, 0, 5, num_samples=0, seed=1)


# --- hitting times --------------------------------------------------------

def test_hitting_time_exact_adjacent():
    assert hitting_time_exact(Graph(2, ((0, 1),)), 0, 1) == pytest.approx(1.0)


def test_hitting_time_exact_on_cycles():
    # classical first-passage on an N-cycle from distance k is k(N-k)
    for n, k in ((8, 1), (8, 3), (8, 4), (15, 7)):
        g = build_cycle(n)
        assert hitting_time_exact(g, 0, k) == pytest.approx(k * (n - k), abs=1e-9)


@pytest.mark.parametrize("g, start, target", [
    (build_line(21), 10, 17),
    (build_cycle(9), 0, 4),
    (build_hypercube(5), 0, 31),
    (build_glued_trees(4, GlueSpec()), 0, 61),
    (build_glued_trees(6, GlueSpec("random-cycle", 5)), 0, 253),
    (build_glued_trees(6, GlueSpec("random-cycle", 5)), 100, 7),
])
def test_hitting_time_exact_has_the_bits_of_the_dense_solve(g, start, target):
    assert hitting_time_exact(g, start, target) == dense_hitting_time(g, start, target)


def test_hitting_time_exact_solves_on_the_target_component():
    # the component {3, 4} never reaches the target; over every vertex it
    # made I - Q singular
    assert hitting_time_exact(Graph(5, [(0, 1), (1, 2), (3, 4)]), 0, 2) == 4.0
    assert hitting_time_exact(Graph(5, [(0, 1), (1, 2), (3, 4)]), 4, 3) == 1.0


def test_hitting_time_exact_ignores_an_isolated_vertex_it_never_visits():
    # vertex 2 lies off the target's component, so its degree never matters
    g = Graph(3, [(0, 1)])
    assert hitting_time_exact(g, 0, 1) == 1.0
    for start, target in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="vertex 2 is an isolated vertex"):
            hitting_time_exact(g, start, target)


def test_hitting_time_exact_refuses_a_start_off_the_target_component():
    # the dense solve over every vertex killed the interpreter here: a
    # child interpreter keeps a regression to this one test
    src = os.path.dirname(os.path.dirname(qwalksim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from qwalksim.classical import hitting_time_exact\n"
            "from qwalksim.graphs import Graph\n"
            "try:\n"
            "    hitting_time_exact(Graph(4, [(0, 1), (2, 3)]), 0, 3)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("vertex 0 cannot reach vertex 3")


def test_hitting_time_exact_same_vertex():
    assert hitting_time_exact(build_cycle(5), 2, 2) == 0.0


def test_hitting_time_exact_glued_trees():
    # cross-checked below by Monte-Carlo sampling on the same graph
    g = build_glued_trees(2, GlueSpec("symmetric"))
    entrance, exit_vertex = glued_trees_entrance_exit(g)
    assert hitting_time_exact(g, entrance, exit_vertex) == pytest.approx(28.0, abs=1e-9)
    g3 = build_glued_trees(3, GlueSpec("symmetric"))
    entrance, exit_vertex = glued_trees_entrance_exit(g3)
    assert hitting_time_exact(g3, entrance, exit_vertex) == pytest.approx(67.5, abs=1e-9)


def test_hitting_time_sampled_matches_exact():
    g = build_cycle(9)
    exact = hitting_time_exact(g, 0, 4)  # 4 * 5 = 20
    result = hitting_time(g, 0, 4, seed=21, num_samples=3000, cap=100000)
    assert result.censored == 0
    assert result.completed == 3000
    assert result.std_error > 0
    assert abs(result.mean - exact) <= 4 * result.std_error


def test_hitting_time_sampled_glued_trees():
    # second route for the absorbing-chain solve above
    g = build_glued_trees(2, GlueSpec("symmetric"))
    entrance, exit_vertex = glued_trees_entrance_exit(g)
    result = hitting_time(g, entrance, exit_vertex, seed=9, num_samples=3000,
                          cap=100000)
    assert result.censored == 0
    assert abs(result.mean - 28.0) <= 4 * result.std_error


def test_hitting_time_deterministic():
    g = build_cycle(7)
    a = hitting_time(g, 0, 3, seed=4, num_samples=200)
    b = hitting_time(g, 0, 3, seed=4, num_samples=200)
    assert (a.mean, a.std_error, a.completed) == (b.mean, b.std_error, b.completed)


def test_hitting_time_censoring():
    g = build_cycle(12)
    result = hitting_time(g, 0, 6, seed=2, num_samples=400, cap=10)
    assert result.completed + result.censored == 400
    assert result.censored > 0
    assert result.cap == 10
    # censoring a capped run biases the mean low, never above the exact value
    assert result.mean < hitting_time_exact(g, 0, 6)


def test_hitting_time_all_censored():
    g = build_cycle(10)
    result = hitting_time(g, 0, 5, seed=1, num_samples=20, cap=2)
    assert result.completed == 0
    assert result.mean is None
    assert result.std_error is None
    assert result.censored == 20


def test_hitting_time_same_vertex():
    result = hitting_time(build_cycle(5), 3, 3, seed=1, num_samples=10)
    assert result == HittingTimeResult(0.0, 0.0, 10, 0, 10 ** 6)


def test_hitting_time_validates():
    g = build_cycle(5)
    with pytest.raises(ValueError):
        hitting_time(g, 0, 9, seed=1, num_samples=10)
    with pytest.raises(ValueError):
        hitting_time(g, 0, 1, seed=1, num_samples=0)
    with pytest.raises(ValueError):
        hitting_time(g, 0, 1, seed=1, num_samples=10, cap=0)
    with pytest.raises(ValueError):
        hitting_time_exact(g, 0, 7)


# --- batched sampling keeps every walk's seed stream ---------------------
#
# The serial loops below are the sampled engines as they were before
# batching: one generator per walk, one scalar integers() call per move.
# The batched engines must reproduce them bit for bit.

def serial_walk(g, start, steps, seed):
    rng = np.random.default_rng(seed)
    path = [start]
    for _ in range(steps):
        nbrs = g.neighbors(path[-1])
        path.append(nbrs[rng.integers(len(nbrs))])
    return np.array(path)


def serial_histogram(g, start, steps, num_samples, seed):
    counts = np.zeros(g.num_vertices)
    for i in range(num_samples):
        counts[serial_walk(g, start, steps, seed + i)[-1]] += 1
    return counts / num_samples


def serial_hitting_time(g, start, target, seed, num_samples, cap):
    hits, censored = [], 0
    for i in range(num_samples):
        rng = np.random.default_rng(seed + i)
        v = start
        for step in range(1, cap + 1):
            nbrs = g.neighbors(v)
            v = nbrs[rng.integers(len(nbrs))]
            if v == target:
                hits.append(step)
                break
        else:
            censored += 1
    if not hits:
        return HittingTimeResult(None, None, 0, censored, cap)
    std_error = (float(np.std(hits, ddof=1) / np.sqrt(len(hits)))
                 if len(hits) > 1 else None)
    return HittingTimeResult(float(np.mean(hits)), std_error, len(hits), censored, cap)


def star(leaves):
    # a centre of degree `leaves` (not a power of two for 3, 5, 6) and
    # degree-1 leaves, which draw nothing from the stream
    return Graph(leaves + 1, [(0, k) for k in range(1, leaves + 1)])


SAMPLING_GRAPHS = {
    "line": lambda: build_line(9),          # degree-1 ends are reached
    "cycle": lambda: build_cycle(7),
    "hypercube": lambda: build_hypercube(3),
    "star": lambda: star(5),
    "glued-random": lambda: build_glued_trees(3, GlueSpec("random-cycle", 4)),
    "glued-symmetric": lambda: build_glued_trees(2, GlueSpec("symmetric")),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SAMPLING_GRAPHS)), data=st.data(),
       steps=st.integers(0, 40), seed=st.integers(0, 2 ** 31),
       samples=st.integers(1, 9), chunk=st.integers(1, 4), block=st.integers(1, 5))
def test_batched_sampling_matches_serial_loop(name, data, steps, seed, samples,
                                              chunk, block):
    # small chunks and draw blocks put walks in several chunks and make
    # rows refill their blocks mid-walk; a drawn crossover moves some
    # chunks in lockstep and walks the others one at a time
    g = SAMPLING_GRAPHS[name]()
    start = data.draw(st.integers(0, g.num_vertices - 1))
    target = data.draw(st.integers(0, g.num_vertices - 1))
    cap = data.draw(st.integers(1, 60))
    crossover = data.draw(st.integers(1, samples + 1))
    with mock.patch.object(classical, "_DRAW_BLOCK", block), \
            mock.patch.object(classical, "_LOCKSTEP_ROWS", crossover):
        path = sample_walk(g, start, steps, seed)
        # a byte budget of `chunk` walks' draw blocks for each call
        with mock.patch.object(classical, "_DRAW_BYTES", 4 * chunk * classical._draw_block(steps)):
            assert len(next(classical._chunks(samples, seed, steps))) == min(chunk, samples)
            hist = sample_endpoint_histogram(g, start, steps, samples, seed)
        with mock.patch.object(classical, "_DRAW_BYTES", 4 * chunk * classical._draw_block(cap)):
            assert len(next(classical._chunks(samples, seed, cap))) == min(chunk, samples)
            hit = hitting_time(g, start, target, seed, samples, cap)
    assert np.array_equal(path, serial_walk(g, start, steps, seed))
    assert np.array_equal(hist, serial_histogram(g, start, steps, samples, seed))
    if start != target:
        assert hit == serial_hitting_time(g, start, target, seed, samples, cap)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SAMPLING_GRAPHS)), data=st.data(),
       seed=st.integers(0, 2 ** 31), samples=st.integers(1, 40), block=st.integers(1, 5))
def test_hitting_time_hands_walks_over_as_the_serial_loop(name, data, seed, samples, block):
    # the lockstep phase ends once fewer than a drawn number of walks move,
    # in the middle of a draw block or after refills, and the rest walk
    # alone from there; capped walks are censored in either phase
    g = SAMPLING_GRAPHS[name]()
    start = data.draw(st.integers(0, g.num_vertices - 1))
    target = data.draw(st.integers(0, g.num_vertices - 1).filter(lambda v: v != start))
    cap = data.draw(st.integers(1, 80))
    crossover = data.draw(st.integers(1, samples + 1))
    with mock.patch.object(classical, "_DRAW_BLOCK", block), \
            mock.patch.object(classical, "_LOCKSTEP_ROWS", crossover):
        got = hitting_time(g, start, target, seed, samples, cap)
    assert got == serial_hitting_time(g, start, target, seed, samples, cap)


def test_hitting_time_hands_over_at_the_default_crossover():
    g = build_glued_trees(3, GlueSpec("symmetric"))
    entrance, exit_vertex = glued_trees_entrance_exit(g)
    walkers = classical._Walkers
    with mock.patch.object(walkers, "move", autospec=True, side_effect=walkers.move) as move, \
            mock.patch.object(walkers, "alone", autospec=True, side_effect=walkers.alone) as alone:
        result = hitting_time(g, entrance, exit_vertex, seed=17, num_samples=300, cap=150)
    assert result == serial_hitting_time(g, entrance, exit_vertex, 17, 300, 150)
    assert result.censored > 0 and result.completed > 0
    # one chunk of 300 walks starts in lockstep, and its slow tail walks alone
    assert len(next(classical._chunks(300, 17, 150))) == 300
    assert move.called
    assert 0 < alone.call_count < classical._LOCKSTEP_ROWS


class Feed:
    """A one-row stand-in for ``RowStreams`` that reads the given draws."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def next(self, rows):
        return np.array([next(self.draws) for _ in rows], dtype=np.uint32)


def zero_led(seed):
    """PCG64(seed) with its state set so that its next three uint32 draws are
    0: a buffered high half of 0, then a raw output of 0 (the next state,
    M*s + inc mod 2^128, is 0)."""
    bits = np.random.PCG64(seed)
    state = bits.state
    inc = state["state"]["inc"]
    state["state"]["state"] = -inc * pow(streams._MULTIPLIER, -1, 2 ** 128) % 2 ** 128
    state["has_uint32"], state["uinteger"] = 1, 0
    bits.state = state
    return bits


@pytest.mark.parametrize("k, lead", [(3, zero_led), (5, zero_led),
                                     (3 * 2 ** 30, np.random.PCG64), (2 ** 31 + 1, np.random.PCG64)])
def test_scalar_walker_follows_numpy_rejection_rule(k, lead):
    # x = 0 is rejected at degrees 3 and 5 ((2^32 - k) mod k = 1), three
    # times in a row here; the large bounds reject about a quarter and a
    # half of all draws. Lemire's rule rejects a draw on a graph with
    # probability about k / 2^32, so no graph test reaches this branch.
    bits = lead(31)
    numpy_rng = np.random.Generator(np.random.PCG64())
    numpy_rng.bit_generator.state = bits.state
    draws = np.random.Generator(bits).integers(0, 2 ** 32 - 1, size=1200, dtype=np.uint32,
                                               endpoint=True).tolist()
    if lead is zero_led:
        assert draws[:3] == [0, 0, 0]

    class EveryVertex(dict):
        # neighbors 0..k-1 everywhere, so each vertex visited is its move's choice
        def __missing__(self, v):
            return classical._vertex_moves(range(k))

    moves = 300
    fed = iter(draws)
    got = list(itertools.islice(classical._walk_alone(EveryVertex(), 0, fed), moves))
    assert got == [numpy_rng.integers(k) for _ in range(moves)]
    feed = Feed(draws)
    row, bound = np.zeros(1, dtype=np.intp), np.array([k], dtype=np.uint64)
    assert [int(classical._bounded_draws(feed, row, bound)[0]) for _ in range(moves)] == got
    # all three consumed the same draws
    assert next(fed) == next(feed.draws) == numpy_rng.integers(0, 2 ** 32 - 1, dtype=np.uint32,
                                                               endpoint=True)


def test_batched_sampling_matches_serial_at_default_chunking():
    g = build_glued_trees(5, GlueSpec("random-cycle", 11))
    entrance, exit_vertex = glued_trees_entrance_exit(g)
    # 25-step walks read 26 uint32s ahead, so 2,600 of them fill two chunks
    assert len(next(classical._chunks(2600, 3, 25))) < 2600
    hist = sample_endpoint_histogram(g, entrance, 25, 2600, seed=3)
    assert np.array_equal(hist, serial_histogram(g, entrance, 25, 2600, 3))
    # 257-step walks read 256 uint32s ahead: a chunk of 256 in lockstep,
    # then 4 walks below the crossover, each walked alone
    assert len(next(classical._chunks(260, 3, 257))) == 256
    hist = sample_endpoint_histogram(g, entrance, 257, 260, seed=3)
    assert np.array_equal(hist, serial_histogram(g, entrance, 257, 260, 3))
    # walks longer than one draw block, some of them censored
    result = hitting_time(g, entrance, exit_vertex, seed=5, num_samples=40, cap=1100)
    assert result == serial_hitting_time(g, entrance, exit_vertex, 5, 40, 1100)
    assert result.censored > 0 and result.completed > 0


def test_uint32_block_equals_integers_draws():
    # blocks of one and three raw outputs, read through several refills
    for block in (1, 3):
        streams = RowStreams([8], uint32, block)
        draws = [streams.next(np.zeros(1, dtype=np.intp))[0] for _ in range(12)]
        want = np.random.default_rng(8).integers(0, 2 ** 32 - 1, size=12, dtype=np.uint32,
                                                 endpoint=True)
        assert np.array_equal(draws, want)


@pytest.mark.parametrize("bounds", [(1, 2, 3, 4), (3 * 2 ** 30, 2 ** 31 + 1, 1, 5, 7)])
def test_bounded_draws_follow_numpy_rejection_rule(bounds):
    # the large bounds reject about a quarter and a half of all draws, so
    # this pins numpy's Lemire rule: a rejected row takes its next draw
    seeds = [21, 22, 23]
    streams = RowStreams(seeds, uint32, 3)
    scalar = [np.random.default_rng(s) for s in seeds]
    pick = np.random.default_rng(0)
    rows = np.arange(len(seeds))
    for _ in range(400):
        k = pick.choice(bounds, size=len(seeds)).astype(np.uint64)
        got = classical._bounded_draws(streams, rows, k)
        want = [rng.integers(int(kk)) for rng, kk in zip(scalar, k)]
        assert got.tolist() == want
    # every row consumed exactly as many draws as its scalar generator
    assert np.array_equal(
        streams.next(rows),
        [rng.integers(0, 2 ** 32 - 1, dtype=np.uint32, endpoint=True) for rng in scalar])


def test_uint32_row_streams_across_2_32_through_block_refills():
    # seeds on both sides of 2^32 (one and two entropy words); each row
    # refills its 4-draw block several times, raw and through Lemire's rule
    seeds = range(2 ** 32 - 3, 2 ** 32 + 3)
    streams = RowStreams(seeds, uint32, 2)
    scalar = [np.random.default_rng(s) for s in seeds]
    rows = np.arange(len(seeds))
    for _ in range(5):
        assert np.array_equal(
            streams.next(rows),
            [rng.integers(0, 2 ** 32 - 1, dtype=np.uint32, endpoint=True) for rng in scalar])
    k = np.array([3, 2 ** 31 + 1, 5, 3 * 2 ** 30, 7, 1], dtype=np.uint64)
    for _ in range(20):
        got = classical._bounded_draws(streams, rows, k)
        assert got.tolist() == [rng.integers(int(kk)) for rng, kk in zip(scalar, k)]


def test_batched_sampling_matches_serial_across_seed_2_32():
    g = build_glued_trees(3, GlueSpec("random-cycle", 4))
    entrance, exit_vertex = glued_trees_entrance_exit(g)
    seed = 2 ** 32 - 3
    # chunks of four walks, each reading four uint32s ahead
    with mock.patch.object(classical, "_DRAW_BYTES", 64), \
            mock.patch.object(classical, "_DRAW_BLOCK", 4):
        path = sample_walk(g, entrance, 15, 2 ** 32)
        hist = sample_endpoint_histogram(g, entrance, 15, 7, seed)
        hit = hitting_time(g, entrance, exit_vertex, seed, 7, 40)
    assert np.array_equal(path, serial_walk(g, entrance, 15, 2 ** 32))
    assert np.array_equal(hist, serial_histogram(g, entrance, 15, 7, seed))
    assert hit == serial_hitting_time(g, entrance, exit_vertex, seed, 7, 40)


def test_sampling_validates_start():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        sample_endpoint_histogram(g, 5, 4, num_samples=3, seed=1)
    with pytest.raises(ValueError):
        sample_endpoint_histogram(g, 0, -1, num_samples=3, seed=1)
    with pytest.raises(ValueError, match="isolated"):
        sample_walk(g, 2, 3, seed=1)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        sample_walk(g, 0, -1, seed=1)
    with pytest.raises(ValueError, match="isolated"):
        hitting_time(g, 2, 0, seed=1, num_samples=3)
    assert np.array_equal(sample_walk(g, 2, 0, seed=1), [2])
