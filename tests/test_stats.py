import itertools
import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalksim import stats
from qwalksim.classical import evolve_classical_exact, iter_classical_distributions
from qwalksim.coined import CoinedWalk, initial_state
from qwalksim.errors import InvariantViolationError
from qwalksim.graphs import build_cycle, build_line
from qwalksim.stats import (Distribution, _as_probs, flatness_tv, mixing_time,
                            occupied_sites, position_distribution, std_dev,
                            total_variation)


class StubState:
    """Minimal object with the state interface, for feeding raw numbers."""

    def __init__(self, graph, probs):
        self.graph = graph
        self._probs = np.asarray(probs, dtype=float)

    def position_distribution(self):
        return self._probs.copy()


# --- distribution extraction ---------------------------------------------

def test_position_distribution_from_pure_state():
    g = build_line(5)
    s = initial_state(g, g.params["origin"], "symmetric")
    d = position_distribution(CoinedWalk(g).evolve(s, 1))
    assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(d.coordinates, g.coordinates)
    assert len(d) == 5


def test_position_distribution_from_classical():
    g = build_cycle(6)
    d = position_distribution(evolve_classical_exact(g, 0, 3))
    assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_position_distribution_rejects_unknown_type():
    with pytest.raises(TypeError):
        position_distribution([0.5, 0.5])


def test_small_negative_entries_clamp_with_warning(caplog):
    g = build_cycle(4)
    probs = np.array([0.5, 0.5 + 1e-13, -1e-13, 0.0])
    with caplog.at_level(logging.WARNING, logger="qwalksim.stats"):
        d = position_distribution(StubState(g, probs))
    assert np.all(d.probabilities >= 0.0)
    assert any("clamped" in record.message for record in caplog.records)


def test_large_negative_entries_raise():
    g = build_cycle(4)
    probs = np.array([0.5, 0.5 + 1e-9, -1e-9, 0.0])
    with pytest.raises(InvariantViolationError):
        position_distribution(StubState(g, probs))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_raise(bad):
    # NaN fails every comparison, so neither check may pass on one
    for probs in ([1.0, bad, 0.0], [bad, 0.0, 0.0], [0.5, 0.5, bad]):
        with pytest.raises(InvariantViolationError):
            Distribution(np.array(probs))


def test_unnormalized_distribution_raises():
    g = build_cycle(4)
    with pytest.raises(InvariantViolationError):
        position_distribution(StubState(g, [0.5, 0.2, 0.1, 0.1]))


# --- moments --------------------------------------------------------------

def test_std_dev_about_origin():
    d = Distribution(np.array([0.5, 0.0, 0.5]), np.array([-2.0, 0.0, 2.0]))
    assert std_dev(d) == pytest.approx(2.0)


def test_moments_need_coordinates():
    d = Distribution(np.array([1.0]))
    with pytest.raises(ValueError):
        std_dev(d)


# --- total variation ------------------------------------------------------

def test_tv_basic_values():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert total_variation([0.75, 0.25], [0.25, 0.75]) == pytest.approx(0.5)


def test_tv_is_symmetric():
    rng = np.random.default_rng(0)
    a = rng.dirichlet(np.ones(8))
    b = rng.dirichlet(np.ones(8))
    assert total_variation(a, b) == total_variation(b, a)
    assert 0.0 <= total_variation(a, b) <= 1.0


def test_tv_rejects_mismatched_spaces():
    with pytest.raises(ValueError):
        total_variation([1.0], [0.5, 0.5])
    a = Distribution(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
    b = Distribution(np.array([0.5, 0.5]), np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        total_variation(a, b)


# --- mixing time ----------------------------------------------------------

def brute_force_mixing(series, target, epsilon, t_max):
    """Strongest reading: every t in (T, min(2T, t_max)] must also qualify."""
    target = np.asarray(target, dtype=float)
    tv = []
    running = np.zeros_like(target)
    for t, probs in zip(range(1, t_max + 1), series):
        running = running + probs
        tv.append(0.5 * np.sum(np.abs(running / t - target)))
    for candidate in range(1, len(tv) + 1):
        hi = min(2 * candidate, len(tv))
        if all(tv[t - 1] <= epsilon for t in range(candidate, hi + 1)):
            return candidate
    return None


def test_mixing_time_matches_brute_force_on_cycle():
    g = build_cycle(9)
    target = np.full(9, 1.0 / 9.0)
    got = mixing_time(iter_classical_distributions(g, 0), target,
                      epsilon=0.05, t_max=2000)
    want = brute_force_mixing(iter_classical_distributions(g, 0), target,
                              0.05, 2000)
    assert got == want
    assert got is not None


def test_mixing_time_instant_when_already_mixed():
    target = np.array([0.5, 0.5])
    series = [target.copy() for _ in range(50)]
    assert mixing_time(iter(series), target, epsilon=0.01, t_max=20) == 1


def test_mixing_time_none_when_never_close():
    target = np.array([1.0, 0.0])
    series = (np.array([0.0, 1.0]) for _ in range(100))
    assert mixing_time(series, target, epsilon=0.01, t_max=50) is None


def test_mixing_time_none_when_series_too_short():
    target = np.array([0.5, 0.5])
    series = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert mixing_time(iter(series), target, epsilon=0.001, t_max=50) is None


def test_mixing_time_ignores_transient_dip():
    # single on-target step at t=2 must not count: the average drifts off
    # again, and the look-ahead window sees that
    target = np.array([0.5, 0.5])
    series = [np.array([0.5, 0.5]) if t == 1 else np.array([1.0, 0.0])
              for t in range(1, 31)]
    assert mixing_time(iter(series), target, epsilon=0.01, t_max=30) is None


def test_mixing_time_validates():
    target = np.array([1.0])
    with pytest.raises(ValueError):
        mixing_time(iter([]), target, epsilon=0.0)
    with pytest.raises(ValueError):
        mixing_time(iter([]), target, t_max=0)


@pytest.mark.parametrize("window_samples", [0, -1])
def test_mixing_time_rejects_window_samples_below_one(window_samples):
    # with no look-ahead the transient dip of the test above would count
    target = np.array([0.5, 0.5])
    series = [np.array([0.5, 0.5]) if t == 1 else np.array([1.0, 0.0])
              for t in range(1, 31)]
    with pytest.raises(ValueError, match="window_samples must be >= 1"):
        mixing_time(iter(series), target, epsilon=0.01, t_max=30,
                    window_samples=window_samples)


def test_mixing_time_rejects_an_item_of_another_length():
    # a block row must not broadcast a short item or target silently
    with pytest.raises(ValueError, match="mismatched position spaces"):
        mixing_time(iter([np.ones(3) / 3] * 5), np.array([0.3]), 0.5, 5)
    with pytest.raises(ValueError, match="mismatched position spaces"):
        mixing_time(iter([np.array([1.0])] * 5), np.ones(3) / 3, 0.5, 5)


def test_mixing_time_rejects_a_ragged_item():
    target = np.full(3, 1.0 / 3.0)
    series = [target, np.full(2, 0.5), target]
    with pytest.raises(ValueError, match="mismatched position spaces"):
        mixing_time(iter(series), target, 0.5, 5)


def test_mixing_time_reads_no_item_past_its_answer():
    def series():
        yield np.array([0.5, 0.5])
        yield np.array([0.5, 0.5])
        raise RuntimeError("item 3")
    # item 2 decides, so item 3 is never read
    mixed = np.array([0.5, 0.5])
    assert serial_mixing_time(series(), mixed, 0.01, 10) == 1
    assert mixing_time(series(), mixed, 0.01, 10) == 1
    with pytest.raises(RuntimeError, match="item 3"):
        mixing_time(series(), np.array([1.0, 0.0]), 0.01, 10)


# --- mixing time against the per-step loop --------------------------------

def serial_mixing_time(step_distributions, target, epsilon=0.01, t_max=10 ** 5,
                       window_samples=10):
    """``mixing_time`` as it was before it read its series in blocks: one
    running sum and one ``total_variation`` per item. The reference."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    target_probs = _as_probs(target)
    it = iter(step_distributions)
    tv: list[float] = []
    running = np.zeros_like(target_probs)
    exhausted = False

    def extend_to(t: int) -> None:
        nonlocal exhausted, running
        while not exhausted and len(tv) < t:
            try:
                probs = _as_probs(next(it))
            except StopIteration:
                exhausted = True
                return
            running = running + probs
            tv.append(total_variation(running / (len(tv) + 1), target_probs))

    candidate = 1
    while candidate <= t_max:
        extend_to(candidate)
        if len(tv) < candidate:
            return None
        if tv[candidate - 1] <= epsilon:
            window_end = min(2 * candidate, t_max)
            extend_to(window_end)
            if len(tv) < window_end:
                # the series ended inside the look-ahead window, so neither
                # this candidate nor any later one can be confirmed
                return None
            checks = np.unique(np.linspace(candidate + 1, window_end,
                                           window_samples).astype(int))
            checks = checks[(checks > candidate) & (checks <= window_end)]
            if all(tv[t - 1] <= epsilon for t in checks):
                return candidate
        candidate += 1
    return None


class Counting:
    """Iterator over ``items`` that counts the items handed out."""

    def __init__(self, items):
        self._items = iter(items)
        self.read = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.read += 1
        return item


def serial_tv(series, target):
    running = np.zeros_like(target)
    out = []
    for t, probs in enumerate(series, start=1):
        running = running + probs
        out.append(total_variation(running / t, target))
    return out


def wandering_series(n, length, seed):
    """Distributions that drift towards uniform with random excursions, so
    the running average's TV crosses a threshold more than once."""
    rng = np.random.default_rng(seed)
    target = np.full(n, 1.0 / n)
    series = []
    for t in range(1, length + 1):
        weight = rng.uniform() ** 2 if rng.uniform() < 0.3 else rng.uniform() / t
        series.append((1.0 - weight) * target + weight * rng.dirichlet(np.ones(n)))
    return target, series


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 2, 15, 16, 129, 300]), length=st.integers(0, 60),
       seed=st.integers(0, 2 ** 32 - 1), pick=st.integers(0, 10 ** 6),
       nudge=st.sampled_from([-1, 0, 1]), t_max_mode=st.sampled_from(["any", "hit", "end"]),
       t_max_any=st.integers(1, 64), offset=st.integers(-2, 2),
       window_samples=st.integers(1, 12), rows=st.integers(1, 3), byte_rows=st.integers(1, 3))
def test_mixing_time_matches_serial_loop(n, length, seed, pick, nudge, t_max_mode, t_max_any,
                                         offset, window_samples, rows, byte_rows):
    target, series = wandering_series(n, length, seed)
    tvs = serial_tv(series, target)
    # epsilon at, or one ulp either side of, a TV the series reaches
    epsilon = tvs[pick % length] if length else 0.25
    epsilon = float(np.nextafter(epsilon, np.inf * nudge)) if nudge else epsilon
    if epsilon <= 0:
        epsilon = 0.25
    first_hit = next((t for t, tv in enumerate(tvs, start=1) if tv <= epsilon), length)
    t_max = max(1, {"any": t_max_any, "hit": first_hit + offset,
                    "end": length + offset}[t_max_mode])
    reference, blocked = Counting(series), Counting(series)
    want = serial_mixing_time(reference, target, epsilon, t_max, window_samples)
    with mock.patch.object(stats, "_MIXING_BLOCK_ROWS", rows), \
            mock.patch.object(stats, "_MIXING_BLOCK_BYTES", 8 * n * byte_rows):
        got = mixing_time(blocked, target, epsilon, t_max, window_samples)
        blocks = stats._RunningTV(series, target)
        blocks.extend_to(length)
    assert np.array_equal(blocks.tv, tvs)
    assert got == want and type(got) is type(want)
    # blocks read nothing past the last item the answer needs
    assert blocked.read == reference.read


@pytest.mark.parametrize("n,engine", [(15, "pure"), (16, "pure"), (15, "classical")])
def test_mixing_time_matches_serial_loop_on_walks(n, engine):
    g = build_cycle(n)
    target = np.full(n, 1.0 / n)
    steps = 20000
    if engine == "pure":
        walk_steps = CoinedWalk(g).iter_steps(initial_state(g, 0, "symmetric"), steps)
        series = [s.position_distribution() for s in walk_steps]
    else:
        series = list(itertools.islice(iter_classical_distributions(g, 0), steps))
    blocks = stats._RunningTV(series, target)
    assert blocks.extend_to(steps)
    assert np.array_equal(blocks.tv, serial_tv(series, target))
    reference, blocked = Counting(series), Counting(series)
    want = serial_mixing_time(reference, target, 0.01, steps)
    got = mixing_time(blocked, target, 0.01, steps)
    assert got == want
    assert (want is None) == (engine == "pure" and n == 16)
    assert blocked.read == reference.read


# --- the block reader's item forms, against the per-step loop ----------------

def point_series(bad, at, length=8):
    """Point masses on vertex 0 of three, never near uniform (so the reader
    takes blocks of 1, 2, 4, ... items up to ``length``), with ``bad`` in
    place of item ``at``."""
    series = [np.array([1.0, 0.0, 0.0])] * length
    series[at] = bad
    return series


@pytest.mark.parametrize("bad", [np.full(2, 0.5), np.full(4, 0.25)])
def test_mixing_time_names_a_ragged_item_inside_a_block(bad):
    # numpy's own "inhomogeneous shape" error must not surface, and the
    # message names the item's shape however far into its block it sits
    target = np.full(3, 1.0 / 3.0)
    message = re.escape(f"mismatched position spaces: {bad.shape} vs (3,)")
    # the 3rd of 5 items, all read at once
    with pytest.raises(ValueError, match=message):
        stats._RunningTV(point_series(bad, 2, 5), target).extend_to(5)
    # through mixing_time: items 1, 2-3, 4-7 and 8 are read together
    for at in range(8):
        with pytest.raises(ValueError):
            serial_mixing_time(iter(point_series(bad, at)), target, 0.01, 8)
        with pytest.raises(ValueError, match=message):
            mixing_time(iter(point_series(bad, at)), target, 0.01, 8)


def test_mixing_time_rejects_a_2d_item():
    target = np.full(3, 1.0 / 3.0)
    row = np.array([[1.0, 0.0, 0.0]])
    # every item 2-D (numpy stacks them without complaint), or one 2-D item
    # as the 2nd of a 2-item read and the 3rd of a 4-item read
    for series in ([row] * 8, point_series(row, 2), point_series(row, 5)):
        with pytest.raises(ValueError) as serial:
            serial_mixing_time(iter(series), target, 0.01, 8)
        with pytest.raises(ValueError) as blocked:
            mixing_time(iter(series), target, 0.01, 8)
        assert str(blocked.value) == str(serial.value) == \
            "mismatched position spaces: (1, 3) vs (3,)"


def item_forms(form):
    """A series and target in one of the forms ``mixing_time`` accepts, and
    epsilon at a TV the series reaches."""
    if form == "int":
        # point masses walking round four vertices: uniform every 4th step
        return [np.eye(4, dtype=np.int64)[t % 4] for t in range(60)], np.full(4, 0.25), 0.1
    target, series = wandering_series(5, 60, 7)
    epsilon = serial_tv(series, target)[30]
    if form == "distribution":
        return [Distribution(p) for p in series], Distribution(target), epsilon
    if form == "list":
        return [p.tolist() for p in series], target.tolist(), epsilon
    # every third item float32
    return [p.astype(np.float32) if t % 3 == 0 else p for t, p in enumerate(series)], \
        target, epsilon


@pytest.mark.parametrize("form", ["distribution", "list", "int", "float32"])
def test_mixing_time_reads_every_item_form_as_the_serial_loop(form):
    series, target, epsilon = item_forms(form)
    probs = _as_probs(target)
    blocks = stats._RunningTV(series, probs)
    assert blocks.extend_to(len(series))
    assert np.array_equal(blocks.tv, serial_tv([_as_probs(p) for p in series], probs))
    for t_max in (20, 60):
        reference, blocked = Counting(series), Counting(series)
        want = serial_mixing_time(reference, target, epsilon, t_max)
        assert mixing_time(blocked, target, epsilon, t_max) == want
        assert blocked.read == reference.read
    assert want is not None


# --- flatness -------------------------------------------------------------

def test_occupied_sites():
    assert np.array_equal(occupied_sites([0.0, 0.5, 0.0, 0.5]), [1, 3])


def test_flatness_tv_perfect_top_hat():
    p = np.zeros(11)
    p[3:8] = 0.2
    assert flatness_tv(p) == pytest.approx(0.0, abs=1e-15)


def test_flatness_tv_skips_parity_gaps():
    # zeros interleaved between occupied sites do not break the window
    p = np.array([0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25])
    assert flatness_tv(p) == pytest.approx(0.0, abs=1e-15)


def test_flatness_tv_hand_value():
    # best window spans all three sites: 0.5 * (|1/2-1/3| + 2|1/4-1/3|) = 1/6
    assert flatness_tv([0.5, 0.25, 0.25, 0.0]) == pytest.approx(1.0 / 6.0)


def test_flatness_tv_single_spike_is_flat():
    # a one-site window is trivially uniform
    assert flatness_tv([0.0, 1.0, 0.0]) == pytest.approx(0.0)


def test_flatness_tv_counts_mass_outside_window():
    # two far spikes with unequal weight: the best single-site window still
    # pays the mass left outside
    value = flatness_tv([0.9, 0.0, 0.1])
    assert value == pytest.approx(0.1)  # window {0}: 0.5*(0.1 + 0.1)


def flatness_tv_reference(p, tol=1e-12):
    """flatness_tv as a direct scan: each window's sums taken on their own."""
    p = np.asarray(p, dtype=float)
    q = p[p > tol]
    total = float(p.sum())
    prefix = np.concatenate(([0.0], np.cumsum(q)))
    best = np.inf
    for i in range(len(q)):
        for j in range(i, len(q)):
            width = j - i + 1
            inside = float(np.sum(np.abs(q[i:j + 1] - 1.0 / width)))
            best = min(best, 0.5 * (inside + total - (prefix[j + 1] - prefix[i])))
    return best


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
       gaps=st.integers(0, 3))
def test_flatness_tv_matches_window_scan(weights, gaps):
    p = np.array(weights)
    if p.sum() == 0.0:
        p[0] = 1.0
    p /= p.sum()
    p = np.repeat(p, gaps + 1) * (np.arange(len(p) * (gaps + 1)) % (gaps + 1) == 0)
    assert flatness_tv(p) == pytest.approx(flatness_tv_reference(p), abs=1e-12)


def test_flatness_tv_matches_window_scan_on_a_walk():
    # the quantum walk profile the command line summarizes: 101 sites
    g = build_line(201)
    p = CoinedWalk(g).evolve(initial_state(g, 100, "symmetric"), 100).position_distribution()
    assert flatness_tv(p) == pytest.approx(flatness_tv_reference(p), abs=1e-12)


def test_flatness_empty_distribution_raises():
    with pytest.raises(ValueError):
        flatness_tv([0.0, 0.0])
