import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalksim import cli, continuous
from qwalksim.continuous import (CONTINUOUS_DIMENSION_LIMIT, HAMILTONIAN_CONVENTIONS,
                                 SERIES_POINTS, Hamiltonian, _grid_amplitudes,
                                 column_sizes, evolve_ct, exit_series_csv, exit_signal,
                                 first_peak_time, hamiltonian, reduce_columns,
                                 transfer_series)
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


def test_dense_limit_admits_the_largest_graphs_it_names():
    assert build_hypercube(12).num_vertices <= CONTINUOUS_DIMENSION_LIMIT
    assert build_glued_trees(10, GlueSpec("symmetric")).num_vertices <= \
        CONTINUOUS_DIMENSION_LIMIT
    assert build_glued_trees(11, GlueSpec("symmetric")).num_vertices > \
        CONTINUOUS_DIMENSION_LIMIT


def test_dense_limit_refuses_before_the_adjacency_matrix(monkeypatch):
    g = build_cycle(CONTINUOUS_DIMENSION_LIMIT + 1)

    def never(self):
        raise AssertionError("adjacency matrix built above the limit")

    monkeypatch.setattr(Graph, "adjacency_matrix", never)
    for convention in HAMILTONIAN_CONVENTIONS:
        with pytest.raises(ValueError, match=f"limit {CONTINUOUS_DIMENSION_LIMIT}; "
                                             "a glued-trees walk started at the entrance"):
            hamiltonian(g, convention=convention)


def test_hamiltonian_requires_symmetric_matrix():
    with pytest.raises(ValueError):
        Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Hamiltonian(np.zeros((2, 3)))


# --- exact evolution ------------------------------------------------------

def test_two_site_oscillation():
    # hand-solved: P(other site) = sin^2(gamma t) under both conventions
    for convention in HAMILTONIAN_CONVENTIONS:
        for gamma in (1.0, 0.7):
            h = hamiltonian(two_site(), gamma, convention)
            for t in (0.0, 0.3, 1.0, 2.5):
                amps = evolve_ct(h, np.eye(2)[0], t)
                assert abs(amps[1]) ** 2 == pytest.approx(
                    np.sin(gamma * t) ** 2, abs=1e-12)


def test_two_site_full_transfer():
    h = hamiltonian(two_site())
    amps = evolve_ct(h, np.eye(2)[0], np.pi / 2)
    assert abs(amps[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_matches_matrix_exponential():
    # independent oracle: dense expm instead of the eigendecomposition
    g = build_cycle(7)
    h = hamiltonian(g, gamma=0.8)
    t = 2.37
    initial = np.eye(7)[0]
    via_expm = scipy.linalg.expm(-1j * h.matrix * t) @ initial
    assert np.allclose(evolve_ct(h, initial, t), via_expm, atol=1e-10)


def test_triangle_revival():
    # cycle(3) Laplacian eigenvalues are 0, 3, 3: at t = 2 pi / 3 every
    # phase returns to 1 and the walker is exactly back where it started
    h = hamiltonian(build_cycle(3))
    amps = evolve_ct(h, np.eye(3)[0], 2 * np.pi / 3)
    assert np.allclose(amps, np.eye(3)[0], atol=1e-10)


def test_norm_is_conserved():
    h = hamiltonian(build_cycle(9), gamma=1.3)
    rng = np.random.default_rng(2)
    initial = rng.normal(size=9) + 1j * rng.normal(size=9)
    initial /= np.linalg.norm(initial)
    for t in (0.1, 5.0, 123.0):
        assert np.linalg.norm(evolve_ct(h, initial, t)) == pytest.approx(
            1.0, abs=1e-10)


@pytest.mark.parametrize("convention", HAMILTONIAN_CONVENTIONS)
@pytest.mark.parametrize("n", range(1, 9))
def test_hypercube_is_a_product_of_qubits(n, convention):
    # A is a sum of bit flips X_i that commute with D = nI, so exp(-iHt)
    # acts on each bit alone up to a global phase, flipping it with
    # probability sin^2(gamma t): P(x, t) = sin^2|x| cos^2(n-|x|)
    gamma = 0.7
    g = build_hypercube(n)
    weight = np.array([bin(x).count("1") for x in range(g.num_vertices)])
    h = hamiltonian(g, gamma, convention)
    for t in (0.0, 0.4, 1.7, 10.0):
        probs = np.abs(evolve_ct(h, np.eye(g.num_vertices)[0], t)) ** 2
        flip = np.sin(gamma * t) ** 2
        product = flip ** weight * (1.0 - flip) ** (n - weight)
        assert np.max(np.abs(probs - product)) < 1e-12, t


def test_negative_time_rejected():
    h = hamiltonian(build_cycle(3))
    with pytest.raises(ValueError):
        evolve_ct(h, np.eye(3)[0], -0.1)


def test_initial_vector_validation():
    h = hamiltonian(build_cycle(3))
    with pytest.raises(ValueError):
        evolve_ct(h, np.array([1.0, 1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        evolve_ct(h, np.array([1.0, 0.0]), 1.0)


def test_evolve_many_matches_single_times():
    # a series on a time grid against one evolve_ct per grid time
    h = hamiltonian(build_cycle(6), gamma=0.9)
    times, values = transfer_series(h, 0, 2, 4.2, 7)
    amps = _grid_amplitudes(h, 0, 4.2, 7, slice(None))
    assert amps.shape == (7, 6)
    for k, t in enumerate(times):
        single = evolve_ct(h, np.eye(6)[0], t)
        assert np.allclose(amps[k], single, rtol=0, atol=1e-12), t
        assert values[k] == pytest.approx(abs(single[2]) ** 2, abs=1e-12)


def test_evolve_many_rejects_negative_times():
    h = hamiltonian(build_cycle(3))
    with pytest.raises(ValueError, match="t_max must be finite and >= 0"):
        transfer_series(h, 0, 1, -1.0)
    with pytest.raises(ValueError, match="t_max must be finite and >= 0"):
        exit_signal(3, GlueSpec(), t_max=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_times_and_gamma_are_refused(bad):
    h = hamiltonian(build_cycle(3))
    with pytest.raises(ValueError, match="t_max must be finite"):
        transfer_series(h, 0, 1, bad)
    with pytest.raises(ValueError, match="t_max must be finite"):
        exit_signal(3, GlueSpec(), t_max=bad)
    with pytest.raises(ValueError, match="time must be finite"):
        evolve_ct(h, np.eye(3)[0], bad)
    with pytest.raises(ValueError, match="gamma must be finite"):
        hamiltonian(build_cycle(3), gamma=bad)
    with pytest.raises(ValueError, match="gamma must be finite"):
        reduce_columns(3, GlueSpec(), gamma=bad)


def test_evolve_many_validates_initial():
    # a series starts on a basis vector of the Hamiltonian; a single time
    # takes any unit vector of its dimension
    h = hamiltonian(build_cycle(3))
    with pytest.raises(IndexError):
        transfer_series(h, 3, 0, 1.0)
    with pytest.raises(IndexError):
        transfer_series(h, 0, 3, 1.0)
    with pytest.raises(ValueError, match="num_times must be >= 1"):
        transfer_series(h, 0, 1, 1.0, 0)
    with pytest.raises(ValueError, match="shape"):
        evolve_ct(h, np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError, match="unit"):
        evolve_ct(h, np.array([1.0, 1.0, 0.0]), 1.0)


# References kept beside the kernels they pin: the single-time product
# evolve_ct runs, and the dense product over every time and vertex that
# the column chain's series ran before its grid kernel.

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


CHAIN_GLUES = pytest.mark.parametrize(
    "glue", [GlueSpec("symmetric"), GlueSpec("random-cycle", seed=1)],
    ids=["symmetric", "random-cycle"])


@pytest.mark.parametrize("depth", [3, 7, 40])
@CHAIN_GLUES
def test_evolve_ct_many_equals_rows_reference(depth, glue):
    # the grid kernel against the dense product it replaced: the exit
    # probability within 1e-13 (2.6e-15 measured), and every column's as
    # well (5.6e-15 measured)
    times = np.linspace(0.0, 4.0 * depth, SERIES_POINTS)
    for convention in HAMILTONIAN_CONVENTIONS:
        h = reduce_columns(depth, glue, convention=convention)
        dense = np.abs(evolve_ct_many_rows_reference(h, np.eye(h.dimension)[0], times)) ** 2
        got_times, exit_probs = exit_signal(depth, glue, convention=convention)
        assert np.array_equal(got_times, times)
        assert np.max(np.abs(exit_probs - dense[:, -1])) < 1e-13, convention
        columns = np.abs(_grid_amplitudes(h, 0, 4.0 * depth, SERIES_POINTS,
                                          slice(None))) ** 2
        assert np.max(np.abs(columns - dense)) < 1e-13, convention


@pytest.mark.parametrize("depth", [3, 7, 40])
@CHAIN_GLUES
def test_grid_point_reads_the_same_bits_however_it_is_asked(depth, glue):
    # one point alone, a few points, the whole grid; one vertex or all
    for convention in HAMILTONIAN_CONVENTIONS:
        h = reduce_columns(depth, glue, convention=convention)
        t_max, n = 4.0 * depth, h.dimension
        whole = _grid_amplitudes(h, 0, t_max, SERIES_POINTS, slice(None))
        for vertex in (0, depth, n - 1):
            assert np.array_equal(
                _grid_amplitudes(h, 0, t_max, SERIES_POINTS, [vertex])[:, 0],
                whole[:, vertex])
        for indices in ([0], [SERIES_POINTS - 1], [63, 64, 65], [1999, 5, 700]):
            asked = _grid_amplitudes(h, 0, t_max, SERIES_POINTS, slice(None), indices)
            assert np.array_equal(asked, whole[indices])
            asked = _grid_amplitudes(h, 0, t_max, SERIES_POINTS, [n - 1], indices)
            assert np.array_equal(asked[:, 0], whole[indices, n - 1])


@pytest.mark.parametrize("depth", [3, 7, 40])
@CHAIN_GLUES
def test_chain_series_matches_matrix_exponential(depth, glue):
    # independent oracle: scipy's expm of the chain at a few grid times,
    # both sides of a fine-table boundary and the last point among them
    indices = [1, 63, 64, 1000, SERIES_POINTS - 1]
    t_max = 4.0 * depth
    times = np.linspace(0.0, t_max, SERIES_POINTS)
    for convention in HAMILTONIAN_CONVENTIONS:
        h = reduce_columns(depth, glue, convention=convention)
        asked = _grid_amplitudes(h, 0, t_max, SERIES_POINTS, slice(None), indices)
        for row, j in zip(asked, indices):
            via_expm = scipy.linalg.expm(-1j * h.matrix * times[j])[:, 0]
            assert np.max(np.abs(row - via_expm)) < 1e-13, (convention, j)


def test_one_point_and_zero_horizon_series():
    glue = GlueSpec("random-cycle", seed=3)
    times, values = exit_signal(3, glue, num_times=1)
    assert np.array_equal(times, [0.0])
    assert values.shape == (1,) and values[0] < 1e-28
    times, values = exit_signal(3, glue, t_max=0.0, num_times=5)
    assert np.array_equal(times, np.zeros(5))
    assert np.all(values == values[0]) and values[0] < 1e-28
    h = reduce_columns(3, glue)
    _, stay = transfer_series(h, 2, 2, 0.0, 3)
    assert np.allclose(stay, 1.0, rtol=0, atol=1e-14)


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
    h = Hamiltonian(analytic_chain(40, glue.mode))
    amps = evolve_ct_many_rows_reference(h, np.eye(h.dimension)[0], times)
    assert np.max(np.abs(values - np.abs(amps[:, -1]) ** 2)) < 1e-9
    assert 0.0 < values.max() <= 1.0


def test_reduction_matches_full_graph(full_graph_exit_signal):
    # oracle: evolve the full graph and compare the exit-vertex probability
    # with the reduced chain's exit column, on the same time grid
    for depth in (1, 2):
        for glue in (GlueSpec("symmetric"), GlueSpec("random-cycle", seed=11)):
            g = build_glued_trees(depth, glue)
            times, full = full_graph_exit_signal(g, num_times=301)
            times_r, reduced = exit_signal(depth, glue, num_times=301)
            assert np.array_equal(times, times_r)
            assert np.max(np.abs(full - reduced)) < 1e-9


@pytest.mark.parametrize("convention", HAMILTONIAN_CONVENTIONS)
@pytest.mark.parametrize("glue", [GlueSpec("symmetric"), GlueSpec("random-cycle", seed=9)],
                         ids=["symmetric", "random-cycle"])
@pytest.mark.parametrize("depth", range(1, 7))
def test_cli_entrance_walk_matches_the_full_graph(depth, glue, convention, tmp_path):
    # the CLI spreads the column chain over each column; the oracle evolves
    # the full graph's dense Hamiltonian
    out = tmp_path / "walk.csv"
    argv = ["walk", "--walk", "continuous", "--graph", "glued-trees", "--depth", str(depth),
            "--glue-mode", glue.mode, "--convention", convention, "-o", str(out)]
    if glue.seed is not None:
        argv += ["--glue-seed", str(glue.seed)]
    g = build_glued_trees(depth, glue)
    h = hamiltonian(g, 1.0, convention)
    entrance, _ = glued_trees_entrance_exit(g)
    initial = np.eye(g.num_vertices)[entrance]
    for t in (0.0, 1.7, 10.0):
        assert cli.main(argv + ["--time", str(t)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        got = np.zeros(g.num_vertices)
        got[rows[:, 0].astype(int)] = rows[:, 1]
        expected = np.abs(evolve_ct(h, initial, t)) ** 2
        assert np.max(np.abs(got - expected)) < 1e-12, t


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
        members = np.flatnonzero(g.labels == column)
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


# --- peak and threshold detection ----------------------------------------

def test_first_peak_on_synthetic_signal():
    times = np.linspace(0.0, 10.0, 1001)
    values = np.sin(times) ** 2
    peak_time, peak_height = first_peak_time(times, values)
    assert peak_time == pytest.approx(np.pi / 2, abs=0.02)
    assert peak_height == pytest.approx(1.0, abs=1e-3)


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), max_size=20),
       floor=st.integers(-1, 4))
def test_peaks_are_the_ones_scipy_finds(runs, floor):
    # few levels and runs of up to four equal values: rises, falls and plateaus
    values = np.repeat([float(level) for level, _ in runs], [count for _, count in runs])
    want, _ = scipy.signal.find_peaks(values, height=floor)
    assert np.array_equal(continuous._peak_indices(values, floor), want)


def test_first_peak_requires_a_peak():
    times = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError):
        first_peak_time(times, times ** 2)


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
