from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalksim import classical
from qwalksim.classical import (HittingTimeResult, evolve_classical_exact,
                                hitting_time, hitting_time_exact,
                                iter_classical_distributions,
                                sample_endpoint_histogram, sample_walk,
                                transition_matrix)
from qwalksim.graphs import (GlueSpec, Graph, build_cycle, build_glued_trees,
                             build_hypercube, build_line,
                             glued_trees_entrance_exit)
from qwalksim.stats import position_distribution, std_dev, total_variation
from qwalksim.streams import RowStreams


# --- transition matrix ---------------------------------------------------

def test_transition_matrix_line():
    t = transition_matrix(build_line(5))
    assert t[0, 1] == 1.0  # reflecting endpoint
    assert t[2, 1] == t[2, 3] == 0.5
    assert np.allclose(t.sum(axis=1), 1.0)


def test_transition_matrix_cycle_and_hypercube():
    t = transition_matrix(build_cycle(4))
    assert t[0, 1] == t[0, 3] == 0.5
    t = transition_matrix(build_hypercube(3))
    assert np.allclose(t[t > 0], 1.0 / 3.0)
    assert np.allclose(t.sum(axis=1), 1.0)


def test_transition_matrix_rejects_isolated_vertex():
    with pytest.raises(ValueError):
        transition_matrix(Graph(2, ()))


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
    assert dist.step_index == 0


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
        t = transition_matrix(g)
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
    assert result.censored_fraction == result.censored / 400
    # censoring a capped run biases the mean low, never above the exact value
    assert result.mean < hitting_time_exact(g, 0, 6)


def test_hitting_time_all_censored():
    g = build_cycle(10)
    result = hitting_time(g, 0, 5, seed=1, num_samples=20, cap=2)
    assert result.completed == 0
    assert result.mean is None
    assert result.std_error is None
    assert result.censored_fraction == 1.0


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
    # rows refill their blocks mid-walk
    g = SAMPLING_GRAPHS[name]()
    start = data.draw(st.integers(0, g.num_vertices - 1))
    target = data.draw(st.integers(0, g.num_vertices - 1))
    cap = data.draw(st.integers(1, 60))
    with mock.patch.object(classical, "_CHUNK_ROWS", chunk), \
            mock.patch.object(classical, "_DRAW_BLOCK", block):
        path = sample_walk(g, start, steps, seed)
        hist = sample_endpoint_histogram(g, start, steps, samples, seed)
        hit = hitting_time(g, start, target, seed, samples, cap)
    assert np.array_equal(path, serial_walk(g, start, steps, seed))
    assert np.array_equal(hist, serial_histogram(g, start, steps, samples, seed))
    if start != target:
        assert hit == serial_hitting_time(g, start, target, seed, samples, cap)


def test_batched_sampling_matches_serial_at_default_chunking():
    g = build_glued_trees(5, GlueSpec("random-cycle", 11))
    entrance, exit_vertex = glued_trees_entrance_exit(g)
    hist = sample_endpoint_histogram(g, entrance, 25, 1100, seed=3)
    assert np.array_equal(hist, serial_histogram(g, entrance, 25, 1100, 3))
    # walks longer than one draw block, some of them censored
    result = hitting_time(g, entrance, exit_vertex, seed=5, num_samples=40, cap=1100)
    assert result == serial_hitting_time(g, entrance, exit_vertex, 5, 40, 1100)
    assert result.censored > 0 and result.completed > 0


def test_uint32_block_equals_integers_draws():
    a = np.random.default_rng(8)
    b = np.random.default_rng(8)
    blocks = np.concatenate([classical._uint32_block(a, n) for n in (2, 6, 4)])
    draws = b.integers(0, 2 ** 32 - 1, size=12, dtype=np.uint32, endpoint=True)
    assert np.array_equal(blocks, draws)


@pytest.mark.parametrize("bounds", [(1, 2, 3, 4), (3 * 2 ** 30, 2 ** 31 + 1, 1, 5, 7)])
def test_bounded_draws_follow_numpy_rejection_rule(bounds):
    # the large bounds reject about a quarter and a half of all draws, so
    # this pins numpy's Lemire rule: a rejected row takes its next draw
    seeds = [21, 22, 23]
    streams = RowStreams(seeds, classical._uint32_block, 6)
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


def test_sampling_validates_start():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        sample_endpoint_histogram(g, 5, 4, num_samples=3, seed=1)
    with pytest.raises(ValueError):
        sample_endpoint_histogram(g, 0, -1, num_samples=3, seed=1)
    with pytest.raises(ValueError, match="isolated"):
        sample_walk(g, 2, 3, seed=1)
    with pytest.raises(ValueError, match="isolated"):
        hitting_time(g, 2, 0, seed=1, num_samples=3)
    assert np.array_equal(sample_walk(g, 2, 0, seed=1), [2])
