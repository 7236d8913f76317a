import numpy as np
import pytest
import scipy.linalg

from qwalksim.continuous import (HAMILTONIAN_CONVENTIONS, Hamiltonian,
                                 column_sizes, entrance_state, evolve_ct,
                                 evolve_ct_many, exit_series_csv, exit_signal,
                                 first_peak_time, full_graph_exit_signal,
                                 hamiltonian, reduce_columns,
                                 threshold_crossing_time)
from qwalksim.graphs import (GlueSpec, Graph, build_cycle, build_glued_trees,
                             build_hypercube, build_line, glued_trees_entrance_exit)


def two_site():
    return Graph(2, ((0, 1),))


# --- Hamiltonian construction --------------------------------------------

def test_laplacian_convention_on_cycle():
    h = hamiltonian(build_cycle(4), gamma=2.0)
    expected = 2.0 * np.array([[2, -1, 0, -1],
                               [-1, 2, -1, 0],
                               [0, -1, 2, -1],
                               [-1, 0, -1, 2]], dtype=float)
    assert np.array_equal(h.matrix, expected)


def test_adjacency_convention_on_cycle():
    g = build_cycle(5)
    h = hamiltonian(g, gamma=0.5, convention="adjacency")
    assert np.array_equal(h.matrix, -0.5 * g.adjacency_matrix())


def test_gamma_must_be_positive():
    with pytest.raises(ValueError):
        hamiltonian(build_cycle(3), gamma=0.0)


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        hamiltonian(build_cycle(3), convention="dirac")
    assert HAMILTONIAN_CONVENTIONS == ("laplacian", "adjacency")


def test_hamiltonian_requires_symmetric_matrix():
    with pytest.raises(ValueError):
        Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), gamma=1.0)
    with pytest.raises(ValueError):
        Hamiltonian(np.zeros((2, 3)), gamma=1.0)


# --- exact evolution ------------------------------------------------------

def test_two_site_oscillation():
    # hand-solved: P(other site) = sin^2(gamma t) under both conventions
    for convention in HAMILTONIAN_CONVENTIONS:
        for gamma in (1.0, 0.7):
            h = hamiltonian(two_site(), gamma, convention)
            for t in (0.0, 0.3, 1.0, 2.5):
                amps = evolve_ct(h, entrance_state(2), t)
                assert abs(amps[1]) ** 2 == pytest.approx(
                    np.sin(gamma * t) ** 2, abs=1e-12)


def test_two_site_full_transfer():
    h = hamiltonian(two_site())
    amps = evolve_ct(h, entrance_state(2), np.pi / 2)
    assert abs(amps[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_matches_matrix_exponential():
    # independent oracle: dense expm instead of the eigendecomposition
    g = build_cycle(7)
    h = hamiltonian(g, gamma=0.8)
    t = 2.37
    initial = entrance_state(7)
    via_expm = scipy.linalg.expm(-1j * h.matrix * t) @ initial
    assert np.allclose(evolve_ct(h, initial, t), via_expm, atol=1e-10)


def test_triangle_revival():
    # cycle(3) Laplacian eigenvalues are 0, 3, 3: at t = 2 pi / 3 every
    # phase returns to 1 and the walker is exactly back where it started
    h = hamiltonian(build_cycle(3))
    amps = evolve_ct(h, entrance_state(3), 2 * np.pi / 3)
    assert np.allclose(amps, entrance_state(3), atol=1e-10)


def test_norm_is_conserved():
    h = hamiltonian(build_cycle(9), gamma=1.3)
    rng = np.random.default_rng(2)
    initial = rng.normal(size=9) + 1j * rng.normal(size=9)
    initial /= np.linalg.norm(initial)
    for t in (0.1, 5.0, 123.0):
        assert np.linalg.norm(evolve_ct(h, initial, t)) == pytest.approx(
            1.0, abs=1e-10)


def test_negative_time_rejected():
    h = hamiltonian(build_cycle(3))
    with pytest.raises(ValueError):
        evolve_ct(h, entrance_state(3), -0.1)


def test_initial_vector_validation():
    h = hamiltonian(build_cycle(3))
    with pytest.raises(ValueError):
        evolve_ct(h, np.array([1.0, 1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        evolve_ct(h, np.array([1.0, 0.0]), 1.0)


def test_evolve_many_matches_single_times():
    h = hamiltonian(build_cycle(6), gamma=0.9)
    initial = np.full(6, 1 / np.sqrt(6), dtype=complex)
    times = np.array([0.0, 0.7, 1.9, 4.2])
    stacked = evolve_ct_many(h, initial, times)
    assert stacked.shape == (4, 6)
    for k, t in enumerate(times):
        # one time is a matrix-vector product, several a matrix product;
        # the two BLAS kernels may round differently in the last place
        assert np.allclose(stacked[k], evolve_ct(h, initial, t), atol=1e-12)


def test_evolve_many_rejects_negative_times():
    h = hamiltonian(build_cycle(3))
    with pytest.raises(ValueError):
        evolve_ct_many(h, entrance_state(3), np.array([0.0, -1.0]))


def test_evolve_many_validates_initial():
    h = hamiltonian(build_cycle(3))
    with pytest.raises(ValueError, match="shape"):
        evolve_ct_many(h, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="unit"):
        evolve_ct_many(h, np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0]))


# The formulas evolve_ct and evolve_ct_many used before they shared one
# core; the shared core must give the same bits.

def evolve_ct_gemv_reference(h, initial, time):
    vals, vecs = h._eig()
    return vecs @ (np.exp(-1j * vals * time) * (vecs.T @ initial))


def evolve_ct_many_rows_reference(h, initial, times):
    vals, vecs = h._eig()
    coeff = vecs.T @ initial
    phases = np.exp(-1j * np.outer(times, vals))
    return (phases * coeff) @ vecs.T


def full_graph_cases():
    for name, g in (("glued-5-symmetric", build_glued_trees(5, GlueSpec("symmetric"))),
                    ("glued-7-random", build_glued_trees(7, GlueSpec("random-cycle", seed=4))),
                    ("line-101", build_line(101)),
                    ("hypercube-6", build_hypercube(6)),
                    ("cycle-15", build_cycle(15))):
        start = g.params.get("origin", 0)
        for convention in HAMILTONIAN_CONVENTIONS:
            yield pytest.param(g, start, convention, id=f"{name}-{convention}")


@pytest.mark.parametrize("graph, start, convention", full_graph_cases())
def test_evolve_ct_equals_gemv_reference(graph, start, convention):
    h = hamiltonian(graph, 1.0, convention)
    initial = np.zeros(graph.num_vertices, dtype=np.complex128)
    initial[start] = 1.0
    for t in (0.0, 0.5, 3.0, 14.0, 100.0):
        assert np.array_equal(evolve_ct(h, initial, t),
                              evolve_ct_gemv_reference(h, initial, t)), t


@pytest.mark.parametrize("depth", [3, 7, 40])
@pytest.mark.parametrize("glue", [GlueSpec("symmetric"), GlueSpec("random-cycle", seed=1)],
                         ids=["symmetric", "random-cycle"])
def test_evolve_ct_many_equals_rows_reference(depth, glue):
    h = reduce_columns(depth, glue)
    initial = entrance_state(h.dimension)
    times = np.linspace(0.0, 4.0 * depth, 2001)
    assert np.array_equal(evolve_ct_many(h, initial, times),
                          evolve_ct_many_rows_reference(h, initial, times))


# --- glued-trees column reduction ----------------------------------------

def test_column_sizes():
    assert np.array_equal(column_sizes(3), [1, 2, 4, 8, 8, 4, 2, 1])
    assert np.array_equal(column_sizes(1), [1, 2, 2, 1])
    # exact past int64: 2^63 and beyond
    assert column_sizes(70)[70] == 2.0 ** 70
    assert column_sizes(70)[-1] == 1
    with pytest.raises(ValueError):
        column_sizes(0)


def test_reduced_chain_matrix_symmetric_glue():
    # hand-built chain for depth 2: couplings -E/sqrt(N N') with 2,4 edges
    # inside each tree and 4 glue edges; degrees 2 at roots and leaves
    h = reduce_columns(2, GlueSpec("symmetric"))
    r2 = np.sqrt(2.0)
    expected = np.array([
        [2.0, -r2, 0.0, 0.0, 0.0, 0.0],
        [-r2, 3.0, -r2, 0.0, 0.0, 0.0],
        [0.0, -r2, 2.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 2.0, -r2, 0.0],
        [0.0, 0.0, 0.0, -r2, 3.0, -r2],
        [0.0, 0.0, 0.0, 0.0, -r2, 2.0],
    ])
    assert np.allclose(h.matrix, expected, atol=1e-12)
    assert h.basis == "glued-trees columns"


def test_reduced_chain_matrix_random_cycle_glue():
    # random-cycle glue doubles the glue edges and leaf degrees become 3
    h = reduce_columns(2, GlueSpec("random-cycle", seed=0))
    assert h.matrix[2, 3] == pytest.approx(-2.0, abs=1e-12)
    assert h.matrix[2, 2] == pytest.approx(3.0, abs=1e-12)
    assert h.matrix[3, 3] == pytest.approx(3.0, abs=1e-12)
    assert h.matrix[0, 0] == pytest.approx(2.0, abs=1e-12)


def analytic_chain(depth, glue_mode):
    # couplings -sqrt(2) inside both trees, -1 (symmetric) or -2 (random
    # cycle) across the glue; Laplacian diagonal 2 at the roots, 3 inside,
    # and 2 or 3 on the two leaf columns
    n = 2 * depth + 2
    coupling = np.full(n - 1, -np.sqrt(2.0))
    coupling[depth] = -1.0 if glue_mode == "symmetric" else -2.0
    diagonal = np.full(n, 3.0)
    diagonal[[0, n - 1]] = 2.0
    diagonal[[depth, depth + 1]] = 2.0 if glue_mode == "symmetric" else 3.0
    return np.diag(diagonal) + np.diag(coupling, 1) + np.diag(coupling, -1)


@pytest.mark.parametrize("depth", [31, 32, 40, 64, 200])
@pytest.mark.parametrize("glue", [GlueSpec("symmetric"), GlueSpec("random-cycle", seed=7)])
def test_reduced_chain_at_depth_past_int64(depth, glue):
    # from depth 32 the column-size product 2^31 * 2^32 leaves int64
    h = reduce_columns(depth, glue)
    assert np.allclose(h.matrix, analytic_chain(depth, glue.mode), rtol=0, atol=1e-12)


def test_exit_signal_at_depth_40_matches_analytic_chain():
    glue = GlueSpec("random-cycle", seed=7)
    times, values = exit_signal(40, glue)
    h = Hamiltonian(analytic_chain(40, glue.mode), 1.0)
    amps = evolve_ct_many(h, entrance_state(h.dimension), times)
    assert np.max(np.abs(values - np.abs(amps[:, -1]) ** 2)) < 1e-9
    assert 0.0 < values.max() <= 1.0


def test_reduction_matches_full_graph():
    # oracle: evolve the full graph and compare the exit-vertex probability
    # with the reduced chain's exit column, on the same time grid
    for depth in (1, 2):
        for glue in (GlueSpec("symmetric"), GlueSpec("random-cycle", seed=11)):
            g = build_glued_trees(depth, glue)
            times, full = full_graph_exit_signal(g, num_times=301)
            times_r, reduced = exit_signal(depth, glue, num_times=301)
            assert np.array_equal(times, times_r)
            assert np.max(np.abs(full - reduced)) < 1e-9


def test_full_graph_stays_column_uniform():
    # the entrance start never breaks column symmetry, which is what makes
    # the chain reduction exact
    glue = GlueSpec("random-cycle", seed=7)
    g = build_glued_trees(2, glue)
    h = hamiltonian(g)
    entrance, _ = glued_trees_entrance_exit(g)
    initial = np.zeros(g.num_vertices, dtype=complex)
    initial[entrance] = 1.0
    amps = evolve_ct(h, initial, 1.7)
    probs = np.abs(amps) ** 2
    for column in range(2 * 2 + 2):
        members = [v for v, c in g.labels.items() if c == column]
        spread = np.ptp(probs[members])
        assert spread < 1e-12


def test_exit_signal_depth_two_peak():
    times, values = exit_signal(2, GlueSpec("symmetric"))
    peak_time, peak_height = first_peak_time(times, values)
    assert peak_time == pytest.approx(2.924, abs=0.02)
    assert peak_height == pytest.approx(0.568, abs=0.01)


def test_exit_signal_depth_three_peak():
    times, values = exit_signal(3, GlueSpec("symmetric"))
    peak_time, peak_height = first_peak_time(times, values)
    assert peak_time == pytest.approx(3.660, abs=0.02)
    assert peak_height == pytest.approx(0.484, abs=0.01)


def test_exit_signal_random_cycle_peak():
    times, values = exit_signal(2, GlueSpec("random-cycle", seed=11))
    peak_time, _ = first_peak_time(times, values)
    assert peak_time == pytest.approx(2.544, abs=0.02)


def test_exit_signal_defaults():
    times, values = exit_signal(3, GlueSpec("symmetric"))
    assert times.shape == values.shape == (2001,)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(12.0)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(values >= -1e-12)
    assert np.all(values <= 1.0 + 1e-12)


def test_entrance_state():
    v = entrance_state(5)
    assert v.shape == (5,)
    assert v[0] == 1.0
    assert np.all(v[1:] == 0.0)


# --- peak and threshold detection ----------------------------------------

def test_first_peak_on_synthetic_signal():
    times = np.linspace(0.0, 10.0, 1001)
    values = np.sin(times) ** 2
    peak_time, peak_height = first_peak_time(times, values)
    assert peak_time == pytest.approx(np.pi / 2, abs=0.02)
    assert peak_height == pytest.approx(1.0, abs=1e-3)


def test_first_peak_requires_a_peak():
    times = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError):
        first_peak_time(times, times ** 2)


def test_threshold_crossing():
    times = np.linspace(0.0, 1.0, 101)
    values = times.copy()
    assert threshold_crossing_time(times, values, 0.5) == pytest.approx(0.5)
    assert threshold_crossing_time(times, values, 2.0) is None


# --- serialization --------------------------------------------------------

def test_exit_series_csv():
    text = exit_series_csv(np.array([0.0, 0.5]), np.array([0.0, 0.25]))
    assert text == "time,exit_probability\n0,0\n0.5,0.25\n"


def test_reduced_chain_validation():
    with pytest.raises(ValueError):
        reduce_columns(0, GlueSpec("symmetric"))
    with pytest.raises(ValueError):
        reduce_columns(2, GlueSpec("symmetric"), gamma=-1.0)
    with pytest.raises(ValueError):
        reduce_columns(2, GlueSpec("symmetric"), convention="dirac")
