from unittest import mock

import numpy as np
import pytest

from qwalksim import streams
from qwalksim.classical import hitting_time, sample_endpoint_histogram, sample_walk
from qwalksim.coined import initial_state
from qwalksim.decoherence import DecoherenceSpec, evolve_trajectory, run_ensemble
from qwalksim.graphs import GlueSpec, build_glued_trees, build_line, glued_trees_entrance_exit
from qwalksim.streams import RowStreams, seed_words


def numpy_words(seeds):
    return np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds],
                    dtype=np.uint64).reshape(-1, 4)


# seeds of one to four 32-bit words, each at a word boundary
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1]


def test_seed_words_match_numpy_at_word_boundaries():
    got = seed_words(EDGE_SEEDS)
    assert got.dtype == np.uint64 and got.shape == (len(EDGE_SEEDS), 4)
    assert np.array_equal(got, numpy_words(EDGE_SEEDS))


@pytest.mark.parametrize("seeds", [
    [2 ** 128],
    [2 ** 300 + 1],
    # one batch of five-, six- and seven-word seeds next to short ones: a
    # seed mixes in only the words it has
    [2 ** 128 + 7, 5, 2 ** 160 - 1, 3 * 2 ** 200, 2 ** 64, 2 ** 192],
], ids=["2^128", "2^300+1", "mixed-lengths"])
def test_seed_words_match_numpy_beyond_four_words(seeds):
    assert np.array_equal(seed_words(seeds), numpy_words(seeds))


def test_seed_words_take_python_and_numpy_ints():
    seeds = [np.int64(5), np.uint64(2 ** 64 - 1), np.int32(7), np.uint32(2 ** 32 - 1), 9]
    assert np.array_equal(seed_words(seeds), numpy_words(seeds))
    assert np.array_equal(seed_words(np.arange(3, 9)), numpy_words(range(3, 9)))


def test_seed_words_match_numpy_on_a_range_across_2_32():
    seeds = range(2 ** 32 - 300, 2 ** 32 + 300)
    assert np.array_equal(seed_words(seeds), numpy_words(seeds))


def test_seed_words_match_numpy_on_random_seeds():
    seeds = [int(s) for s in np.random.default_rng(2).integers(0, 2 ** 63, 2000)]
    assert np.array_equal(seed_words(seeds), numpy_words(seeds))


# seeds at word boundaries, on both sides of 2^32 and above 2^128
STREAM_SEEDS = EDGE_SEEDS + [2 ** 32 - 2, 2 ** 32 + 1, 2 ** 128, 2 ** 200 + 3]


def test_seeded_state_and_increment_match_numpy_pcg64():
    seeds = STREAM_SEEDS + list(range(2 ** 32 - 20, 2 ** 32 + 20))
    state, inc = streams._seeded(seed_words(seeds))
    assert state.dtype == inc.dtype == np.uint64
    assert state.shape == inc.shape == (len(seeds), 2)
    for s, (s_hi, s_lo), (i_hi, i_lo) in zip(seeds, state.tolist(), inc.tolist()):
        want = np.random.PCG64(s).state["state"]
        assert (s_hi << 64 | s_lo, i_hi << 64 | i_lo) == (want["state"], want["inc"])


def raw(values):
    return values


# each conversion, with numpy's draws of n values of the same kind
CONVERSIONS = {
    "raw": (raw, lambda s, n: np.random.PCG64(s).random_raw(n)),
    "uniform": (streams.uniform, lambda s, n: np.random.default_rng(s).random(n)),
    "uint32": (streams.uint32, lambda s, n: np.random.default_rng(s).integers(
        0, 2 ** 32 - 1, size=n, dtype=np.uint32, endpoint=True)),
}


@pytest.mark.parametrize("block", [1, 3, streams.MAX_BLOCK])
@pytest.mark.parametrize("kind", sorted(CONVERSIONS))
def test_row_streams_match_numpy_through_refills(kind, block):
    convert, numpy_draws = CONVERSIONS[kind]
    rows = RowStreams(STREAM_SEEDS, convert, block)
    width = len(convert(np.zeros((1, block), dtype=np.uint64))[0])
    n = 2 * width + 1  # through two refills
    everyone = np.arange(len(STREAM_SEEDS))
    got = np.stack([rows.next(everyone) for _ in range(n)], axis=1)
    assert np.array_equal(got, [numpy_draws(s, n) for s in STREAM_SEEDS])


@pytest.mark.parametrize("kind", sorted(CONVERSIONS))
def test_row_streams_read_at_different_rates(kind):
    # rows read at different rates and refill at different times, yet each
    # sees exactly numpy's sequence for its seed
    convert, numpy_draws = CONVERSIONS[kind]
    rows = RowStreams(STREAM_SEEDS, convert, 2)
    pick = np.random.default_rng(3)
    read = [[] for _ in STREAM_SEEDS]
    for _ in range(60):
        rates = np.linspace(0.4, 0.95, len(STREAM_SEEDS))
        listed = np.flatnonzero(pick.random(len(STREAM_SEEDS)) < rates)
        for r, value in zip(listed, rows.next(listed)):
            read[r].append(value)
    for s, values in zip(STREAM_SEEDS, read):
        assert len(values) > 8 and np.array_equal(values, numpy_draws(s, len(values)))


def test_row_streams_read_default_rng_at_word_boundaries():
    seeds = EDGE_SEEDS + [2 ** 128, 2 ** 200 + 3]
    rows = RowStreams(seeds, streams.uniform, 3)
    scalar = [np.random.default_rng(s) for s in seeds]
    everyone = np.arange(len(seeds))
    for _ in range(7):  # through two refills
        assert rows.next(everyone).tolist() == [rng.random() for rng in scalar]


@pytest.mark.parametrize("seeds", [[-1], [5, np.int64(-2), 6]])
def test_negative_seed_raises_before_any_generator_is_built(seeds):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)  # the error numpy gives
    with mock.patch.object(streams, "_seeded", wraps=streams._seeded) as seeded:
        with pytest.raises(ValueError, match="expected non-negative integer"):
            RowStreams(seeds, streams.uniform, 4)
    seeded.assert_not_called()


@pytest.mark.parametrize("block", [0, streams.MAX_BLOCK + 1])
def test_row_streams_refuse_a_block_out_of_range(block):
    with pytest.raises(ValueError, match="block must be in 1..256"):
        RowStreams([4], streams.uniform, block)


def test_monte_carlo_engines_build_no_numpy_generator():
    line = build_line(21)
    origin = line.params["origin"]
    state = initial_state(line, origin, "symmetric")
    spec = DecoherenceSpec(0.3, "both")
    trees = build_glued_trees(2, GlueSpec("symmetric"))
    entrance, exit_vertex = glued_trees_entrance_exit(trees)
    with mock.patch.object(np.random, "Generator", wraps=np.random.Generator) as generator, \
            mock.patch.object(np.random, "PCG64", wraps=np.random.PCG64) as pcg64, \
            mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rng:
        run_ensemble(state, spec, 8, 5, seed=1)
        evolve_trajectory(state, spec, 8, seed=2)
        sample_walk(line, origin, 8, seed=3)
        sample_endpoint_histogram(line, origin, 8, 20, seed=4)
        hitting_time(trees, entrance, exit_vertex, seed=5, num_samples=10)
    generator.assert_not_called()
    pcg64.assert_not_called()
    rng.assert_not_called()


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("kind", sorted(CONVERSIONS))
def test_row_draws_continue_each_row_through_its_own_refills(kind, block):
    # rows on both sides of 2^32 read at different rates, then hand over
    # their draws: the rest of the block and three of the row's own
    # refills continue numpy's sequence for its seed, as Python scalars
    convert, numpy_draws = CONVERSIONS[kind]
    seeds = range(2 ** 32 - 4, 2 ** 32 + 4)
    rows = RowStreams(seeds, convert, block)
    pick = np.random.default_rng(5)
    read = np.zeros(len(seeds), dtype=int)
    for _ in range(7):
        listed = np.flatnonzero(pick.random(len(seeds)) < 0.6)
        rows.next(listed)
        read[listed] += 1
    n = 3 * len(convert(np.zeros((1, streams.MAX_BLOCK), dtype=np.uint64))[0]) + 5
    evens, odds = np.arange(0, len(seeds), 2), np.arange(1, len(seeds), 2)
    for handed in (evens, odds):
        for r in handed:
            draws = rows.row_draws(r)
            got = [next(draws) for _ in range(n)]
            assert not any(isinstance(x, np.generic) for x in got)
            assert np.array_equal(got, numpy_draws(seeds[r], read[r] + n)[read[r]:])
        # the rows not handed over read on through next
        if handed is evens:
            assert np.array_equal(rows.next(odds),
                                  [numpy_draws(seeds[r], read[r] + 1)[-1] for r in odds])
            read[odds] += 1
