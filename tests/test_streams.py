from unittest import mock

import numpy as np
import pytest

from qwalksim import streams
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


def test_row_streams_read_default_rng_at_word_boundaries():
    seeds = EDGE_SEEDS + [2 ** 128, 2 ** 200 + 3]
    rows = RowStreams(seeds, np.random.Generator.random, 3)
    scalar = [np.random.default_rng(s) for s in seeds]
    everyone = np.arange(len(seeds))
    for _ in range(7):  # through two refills
        assert rows.next(everyone).tolist() == [rng.random() for rng in scalar]


@pytest.mark.parametrize("seeds", [[-1], [5, np.int64(-2), 6]])
def test_negative_seed_raises_before_any_generator_is_built(seeds):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)  # the error numpy gives
    with mock.patch.object(np.random, "PCG64", wraps=np.random.PCG64) as pcg64:
        with pytest.raises(ValueError, match="expected non-negative integer"):
            RowStreams(seeds, np.random.Generator.random, 4)
    pcg64.assert_not_called()


def test_seed_words_answer_only_the_request_pcg64_makes():
    words = streams._SeedWords(seed_words([3])[0])
    assert np.array_equal(words.generate_state(4, np.uint64), numpy_words([3])[0])
    with pytest.raises(ValueError, match="asked for 624 of uint32"):
        np.random.MT19937(words)
