import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalksim.classical import evolve_classical_exact, iter_classical_distributions
from qwalksim.coined import CoinedWalk, initial_state
from qwalksim.errors import InvariantViolationError
from qwalksim.graphs import build_cycle, build_line
from qwalksim.stats import (Distribution, central_std_dev, flatness_ratio,
                            flatness_tv, mixing_time, occupied_sites,
                            position_distribution, std_dev, time_averaged,
                            total_variation, uniform_distribution)


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
    d = position_distribution(CoinedWalk(g).evolve(s, 1), step=1)
    assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(d.coordinates, g.coordinates)
    assert d.metadata == {"step": 1}
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


def test_unnormalized_distribution_raises():
    g = build_cycle(4)
    with pytest.raises(InvariantViolationError):
        position_distribution(StubState(g, [0.5, 0.2, 0.1, 0.1]))


# --- moments --------------------------------------------------------------

def test_std_dev_about_origin():
    d = Distribution(np.array([0.5, 0.0, 0.5]), np.array([-2.0, 0.0, 2.0]))
    assert std_dev(d) == pytest.approx(2.0)


def test_central_std_dev_subtracts_mean():
    d = Distribution(np.array([0.5, 0.5]), np.array([0.0, 4.0]))
    assert std_dev(d) == pytest.approx(np.sqrt(8.0))
    assert central_std_dev(d) == pytest.approx(2.0)


def test_moments_need_coordinates():
    d = Distribution(np.array([1.0]))
    with pytest.raises(ValueError):
        std_dev(d)
    with pytest.raises(ValueError):
        central_std_dev(d)


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


def test_uniform_distribution():
    u = uniform_distribution(4)
    assert np.array_equal(u.probabilities, np.full(4, 0.25))
    with pytest.raises(ValueError):
        uniform_distribution(0)


# --- time averaging -------------------------------------------------------

def test_time_averaged_mean():
    avg = time_averaged([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(avg.probabilities, [0.5, 0.5])
    assert avg.metadata == {"averaged_over": 2}


def test_time_averaged_carries_coordinates():
    coords = np.array([-1.0, 1.0])
    series = [Distribution(np.array([1.0, 0.0]), coords),
              Distribution(np.array([0.5, 0.5]), coords)]
    avg = time_averaged(series)
    assert np.array_equal(avg.coordinates, coords)


def test_time_averaged_rejects_empty():
    with pytest.raises(ValueError):
        time_averaged([])


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


# --- flatness -------------------------------------------------------------

def test_occupied_sites():
    assert np.array_equal(occupied_sites([0.0, 0.5, 0.0, 0.5]), [1, 3])


def test_flatness_ratio():
    assert flatness_ratio([0.25, 0.0, 0.75]) == pytest.approx(3.0)
    assert flatness_ratio([0.5, 0.5]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        flatness_ratio([0.0, 0.0])


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
