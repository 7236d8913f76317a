"""End-to-end acceptance gate.

One test per shipping criterion, in order. Each test prints a single
``acceptance N <name>: PASS`` line with its wall time (visible with
``pytest -s``); the per-test PASSED/FAILED status in ``pytest -v`` carries
the same information when output capture is on. Runtime budgets are part
of the criteria and asserted.
"""

import json
import os
import time

import numpy as np
import pytest

from qwalksim import cli
from qwalksim.classical import (evolve_classical_exact, hitting_time_exact,
                                iter_classical_distributions,
                                sample_endpoint_histogram)
from qwalksim.coined import CoinedWalk, initial_state
from qwalksim.continuous import evolve_ct, exit_signal, first_peak_time, hamiltonian
from qwalksim.decoherence import (DecoherenceSpec, evolve_density,
                                  iter_density_steps, run_ensemble, to_density)
from qwalksim.graphs import (GlueSpec, build_cycle, build_glued_trees,
                             build_line, glued_trees_entrance_exit)
from qwalksim.stats import mixing_time, position_distribution, std_dev

R2 = np.sqrt(2.0)
R8 = np.sqrt(8.0)


def report(number, name, elapsed, budget, detail=""):
    assert elapsed < budget, (
        f"criterion {number} took {elapsed:.3f} s, over the {budget:g} s budget")
    suffix = f" [{detail}]" if detail else ""
    print(f"acceptance {number} {name}: PASS ({elapsed:.3g} s < {budget:g} s)"
          + suffix, flush=True)


def amplitude_table(state, tol=1e-14):
    g = state.graph
    table = {}
    for k in np.flatnonzero(np.abs(state.amplitudes) > tol):
        v = int(g.half_edge_vertex[k])
        c = int(k - g.offsets[v])
        table[(int(g.coordinates[v]), c)] = complex(state.amplitudes[k])
    return table


def test_criterion_1_three_step_amplitudes():
    # Exact hand-derived trace of the balanced-coin walk from |0, 0>.
    # At step 2 the (2, 1) component carries a minus sign; expanding that
    # state one more step by linearity forces the step-3 signs asserted
    # here: x=+1 negative and x=+3 positive, all magnitudes (1,1,2,1,1)/sqrt(8).
    def run():
        g = build_line(9)
        walk = CoinedWalk(g, "hadamard")
        state = initial_state(g, g.params["origin"], (1.0, 0.0))
        states = list(walk.iter_steps(state, 3))
        return g, states, states[-1].position_distribution()

    # deterministic computation, so time it best-of-5: scheduler noise on a
    # single sample can exceed the whole sub-millisecond budget
    elapsed = np.inf
    for _ in range(5):
        started = time.perf_counter()
        g, states, distribution = run()
        elapsed = min(elapsed, time.perf_counter() - started)

    expected = {
        1: {(-1, 0): 1 / R2, (1, 1): 1 / R2},
        2: {(-2, 0): 0.5, (0, 0): 0.5, (0, 1): 0.5, (2, 1): -0.5},
        3: {(-3, 0): 1 / R8, (-1, 0): 2 / R8, (-1, 1): 1 / R8,
            (1, 0): -1 / R8, (3, 1): 1 / R8},
    }
    for t, state_t in enumerate(states, start=1):
        table = amplitude_table(state_t)
        assert set(table) == set(expected[t]), f"support differs at step {t}"
        for key, want in expected[t].items():
            assert table[key] == pytest.approx(want, abs=1e-12), (
                f"step {t} component {key}")
    by_x = {int(g.coordinates[v]): p for v, p in enumerate(distribution)}
    for x, want in ((-3, 1 / 8), (-1, 5 / 8), (1, 1 / 8), (3, 1 / 8)):
        assert by_x[x] == pytest.approx(want, abs=1e-12)
    report(1, "three-step-amplitudes", elapsed, 0.001)


def test_criterion_2_spreading_exponents():
    started = time.perf_counter()
    for t in (4, 16, 64, 100):
        g = build_line(2 * t + 1)
        dist = position_distribution(
            evolve_classical_exact(g, g.params["origin"], t))
        assert std_dev(dist) == pytest.approx(np.sqrt(t), abs=1e-9), (
            f"classical sigma at t={t}")

    g = build_line(1601)
    walk = CoinedWalk(g, "hadamard")
    state = initial_state(g, g.params["origin"], (1.0, 0.0))
    sigma = {}
    evolved = 0
    for t in (100, 200, 400, 800):
        state = walk.evolve(state, t - evolved)
        evolved = t
        sigma[t] = std_dev(position_distribution(state))
    elapsed = time.perf_counter() - started

    ratios = [sigma[2 * t] / sigma[t] for t in (100, 200, 400)]
    for t, ratio in zip((100, 200, 400), ratios):
        assert 1.9 <= ratio <= 2.1, f"quantum sigma ratio at t={t}: {ratio}"
    report(2, "spreading-exponents", elapsed, 1.0,
           f"ratios {', '.join(f'{r:.4f}' for r in ratios)}")


def test_criterion_3_classical_limit():
    # p=1 measurement of both registers after every step must walk exactly
    # like the degree-uniform classical chain, step for step
    started = time.perf_counter()
    worst = 0.0
    for g, start in ((build_line(201), None), (build_cycle(15), 0)):
        start = g.params["origin"] if start is None else start
        state = initial_state(g, start, (1.0, 0.0))
        density_steps = iter_density_steps(to_density(state),
                                           DecoherenceSpec(1.0, "both"))
        classical_steps = iter_classical_distributions(g, start)
        for _ in range(100):
            got = next(density_steps).position_distribution()
            want = next(classical_steps)
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    report(3, "classical-limit", elapsed, 30.0, f"worst diff {worst:.2e}")


def test_criterion_4_decoherence_flattens(tmp_path):
    # sweep measurement strength at t=100 through the command line and read
    # the emitted summary: flatness is optimal at intermediate p while the
    # spread shrinks monotonically
    started = time.perf_counter()
    outdir = str(tmp_path / "sweep")
    code = cli.main(["sweep", "--graph", "line", "--steps", "100",
                     "--initial", "symmetric", "--axis", "p",
                     "--values", "0,0.003,0.01,0.03,0.1",
                     "--output-dir", outdir])
    elapsed = time.perf_counter() - started
    assert code == 0

    with open(os.path.join(outdir, "sweep_summary.csv")) as handle:
        header, *rows = handle.read().strip().split("\n")
    columns = header.split(",")
    table = [dict(zip(columns, row.split(","))) for row in rows]
    ps = [float(r["p"]) for r in table]
    flatness = [float(r["flatness_tv"]) for r in table]
    sigmas = [float(r["std_dev"]) for r in table]
    assert ps == [0.0, 0.003, 0.01, 0.03, 0.1]
    best_p = ps[int(np.argmin(flatness))]
    assert 0.01 <= best_p <= 0.1, f"flatness optimum at p={best_p}"
    assert all(a > b for a, b in zip(sigmas, sigmas[1:])), (
        f"std_dev not monotone: {sigmas}")
    report(4, "decoherence-flattens", elapsed, 300.0,
           f"optimum p={best_p:g}, sigma {sigmas[0]:.1f}->{sigmas[-1]:.1f}")


def quantum_position_steps(graph, t_max, p=0.0):
    state = initial_state(graph, 0, "symmetric")
    if p == 0.0:
        walk = CoinedWalk(graph)
        return (s.position_distribution() for s in walk.iter_steps(state, t_max))
    steps = iter_density_steps(to_density(state), DecoherenceSpec(p, "both"))
    return (rho.position_distribution() for rho in steps)


def test_criterion_5_cycle_mixing():
    started = time.perf_counter()
    epsilon, t_max = 0.01, 10 ** 5

    g15 = build_cycle(15)
    uniform15 = np.full(15, 1.0 / 15.0)
    t_quantum = mixing_time(quantum_position_steps(g15, t_max), uniform15,
                            epsilon, t_max)
    t_classical = mixing_time(iter_classical_distributions(g15, 0), uniform15,
                              epsilon, t_max)
    assert t_quantum is not None and t_quantum <= t_max
    assert t_classical is not None
    assert t_quantum < t_classical

    # some measurement strength in (0, 0.2] mixes at least as fast as none
    t_weak = mixing_time(quantum_position_steps(g15, t_max, p=0.01), uniform15,
                         epsilon, t_max)
    assert t_weak is not None and t_weak <= t_quantum

    # even cycle: the pure walk never time-averages to uniform, a measured
    # walk does
    g16 = build_cycle(16)
    uniform16 = np.full(16, 1.0 / 16.0)
    t_pure16 = mixing_time(quantum_position_steps(g16, t_max), uniform16,
                           epsilon, t_max)
    t_meas16 = mixing_time(quantum_position_steps(g16, t_max, p=0.05),
                           uniform16, epsilon, t_max)
    assert t_pure16 is None
    assert t_meas16 is not None
    elapsed = time.perf_counter() - started
    report(5, "cycle-mixing", elapsed, 600.0,
           f"quantum {t_quantum} < classical {t_classical}, "
           f"p=0.01 {t_weak}, even-cycle measured {t_meas16}")


def test_criterion_6_glued_trees_separation(full_graph_exit_signal):
    started = time.perf_counter()
    # reduced chain certified against the full graph where both fit
    for depth in (1, 2):
        for glue in (GlueSpec("symmetric"), GlueSpec("random-cycle", seed=11)):
            g = build_glued_trees(depth, glue)
            _, full = full_graph_exit_signal(g)
            _, reduced = exit_signal(depth, glue)
            assert np.max(np.abs(full - reduced)) < 1e-9

    depths = np.arange(2, 7)
    peak_times = []
    for depth in depths:
        times, values = exit_signal(int(depth), GlueSpec("symmetric"))
        peak_time, _ = first_peak_time(times, values)
        peak_times.append(peak_time)
    peak_times = np.array(peak_times)
    slope, intercept = np.polyfit(depths, peak_times, 1)
    fitted = slope * depths + intercept
    residual = float(np.max(np.abs(fitted - peak_times) / peak_times))
    assert slope > 0
    assert residual <= 0.2, f"linear fit off by {residual:.1%}"

    hitting = {}
    for depth in (2, 6):
        g = build_glued_trees(depth, GlueSpec("symmetric"))
        entrance, exit_vertex = glued_trees_entrance_exit(g)
        hitting[depth] = hitting_time_exact(g, entrance, exit_vertex)
    classical_ratio = hitting[6] / hitting[2]
    quantum_ratio = peak_times[-1] / peak_times[0]
    assert classical_ratio >= 4.0 * quantum_ratio
    elapsed = time.perf_counter() - started
    report(6, "glued-trees-separation", elapsed, 60.0,
           f"slope {slope:.3f}, fit residual {residual:.2%}, classical/quantum "
           f"depth ratio {classical_ratio:.1f} vs {quantum_ratio:.2f}")


def test_criterion_7a_trajectories_match_density():
    started = time.perf_counter()
    g = build_line(101)
    state = initial_state(g, g.params["origin"], "basis0")
    spec = DecoherenceSpec(0.1, "both")
    steps, trajectories = 50, 10 ** 5
    exact = evolve_density(to_density(state), spec, steps).position_distribution()
    mean, stderr = run_ensemble(state, spec, steps, trajectories, seed=1234)
    # per-trajectory bin values sit in [0, 1], so q(1-q)/M bounds the bin
    # variance; the floor covers bins the ensemble never visited
    floor = np.sqrt(exact * (1.0 - exact) / trajectories)
    se = np.maximum(stderr, floor) + 1e-12
    deviations = np.abs(mean - exact) / se
    elapsed = time.perf_counter() - started
    assert np.all(deviations <= 3.0), (
        f"{int(np.sum(deviations > 3))} bins beyond 3 standard errors "
        f"(worst {deviations.max():.2f})")
    report("7a", "trajectories-match-density", elapsed, 480.0,
           f"worst bin {deviations.max():.2f} standard errors at {trajectories} runs")


def test_criterion_7b_sampled_classical_matches_exact():
    started = time.perf_counter()
    g = build_line(41)
    origin = g.params["origin"]
    steps, samples = 20, 10 ** 5
    hist = sample_endpoint_histogram(g, origin, steps, samples, seed=7)
    exact = evolve_classical_exact(g, origin, steps).probabilities
    tv = 0.5 * float(np.sum(np.abs(hist - exact)))
    elapsed = time.perf_counter() - started
    assert tv < 0.01
    report("7b", "sampled-classical-matches-exact", elapsed, 60.0,
           f"TV {tv:.4f} at {samples} samples")


def test_criterion_7c_long_run_invariants():
    started = time.perf_counter()
    g = build_cycle(15)
    state = initial_state(g, 0, "symmetric")
    final = CoinedWalk(g).evolve(state, 1000)
    norm_drift = abs(final.norm() - 1.0)
    assert norm_drift < 1e-9

    g5 = build_cycle(5)
    rho = evolve_density(to_density(initial_state(g5, 0, "basis0")),
                         DecoherenceSpec(0.1, "both"), 1000)
    rho.check(herm_tol=1e-9, trace_tol=1e-9, eig_floor=-1e-9)

    h = hamiltonian(build_cycle(15))
    amps = evolve_ct(h, np.eye(15, dtype=complex)[0], 1000.0)
    ct_drift = abs(np.linalg.norm(amps) - 1.0)
    assert ct_drift < 1e-9
    elapsed = time.perf_counter() - started
    report("7c", "long-run-invariants", elapsed, 30.0,
           f"unitary drift {norm_drift:.1e}, trace drift "
           f"{abs(rho.trace() - 1.0):.1e}, continuous drift {ct_drift:.1e}")


def test_criterion_7d_reruns_byte_identical(tmp_path):
    started = time.perf_counter()
    density_argv = ["walk", "--graph", "line", "--steps", "20", "--p", "0.05"]
    sampled_argv = ["walk", "--graph", "cycle", "--n", "9", "--steps", "25",
                    "--p", "0.3", "--trajectories", "200", "--seed", "11"]
    for tag, argv in (("density", density_argv), ("sampled", sampled_argv)):
        first = str(tmp_path / f"{tag}_1.csv")
        second = str(tmp_path / f"{tag}_2.csv")
        assert cli.main(argv + ["-o", first]) == 0
        assert cli.main(argv + ["-o", second]) == 0
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read(), f"{tag} rerun differs"
        with open(first + ".meta.json") as handle:
            meta = json.load(handle)
        assert "wall_time_seconds" in meta  # volatile data lives in metadata
    elapsed = time.perf_counter() - started
    report("7d", "reruns-byte-identical", elapsed, 30.0)
