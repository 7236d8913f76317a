"""The line rule at every line-bound entry point.

A line of n positions stands in for the infinite line: a walk may reach an
end vertex on its last step, and one more step is refused with
``BoundaryOverflowError`` (exit code 2 naming ``num-positions`` on the CLI)
instead of reflecting.
"""

import numpy as np
import pytest

from qwalksim import cli
from qwalksim.classical import evolve_classical_exact
from qwalksim.coined import CoinedWalk, initial_state
from qwalksim.decoherence import (DecoherenceSpec, DensityState, evolve_density,
                                  evolve_trajectory, run_ensemble, to_density)
from qwalksim.errors import BoundaryOverflowError
from qwalksim.graphs import build_cycle, build_line

SPEC = DecoherenceSpec(0.2, "both")


# each entry point runs `steps` steps of a walk started at vertex v
ENTRY_POINTS = {
    "CoinedWalk.evolve": lambda g, v, steps: CoinedWalk(g).evolve(initial_state(g, v), steps),
    "CoinedWalk.iter_steps": lambda g, v, steps: list(
        CoinedWalk(g).iter_steps(initial_state(g, v), steps)),
    "evolve_density": lambda g, v, steps: evolve_density(
        to_density(initial_state(g, v)), SPEC, steps),
    "evolve_trajectory": lambda g, v, steps: evolve_trajectory(
        initial_state(g, v), SPEC, steps, seed=3),
    "run_ensemble": lambda g, v, steps: run_ensemble(
        initial_state(g, v), SPEC, steps, trajectories=4, seed=3),
    "evolve_classical_exact": lambda g, v, steps: evolve_classical_exact(g, v, steps),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("start, budget", [(3, 3), (1, 1), (5, 1)])
def test_reaching_an_end_on_the_last_step_only(entry, start, budget):
    g = build_line(7)
    run = ENTRY_POINTS[entry]
    run(g, start, budget)
    with pytest.raises(BoundaryOverflowError):
        run(g, start, budget + 1)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_zero_steps_from_an_end_vertex_pass(entry):
    g = build_line(7)
    ENTRY_POINTS[entry](g, 0, 0)
    ENTRY_POINTS[entry](g, 6, 0)
    with pytest.raises(BoundaryOverflowError):
        ENTRY_POINTS[entry](g, 0, 1)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_other_graphs_are_not_bounded(entry):
    ENTRY_POINTS[entry](build_cycle(5), 0, 12)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_negative_steps_are_refused(entry):
    # on any graph, not only on a line
    for g, v in ((build_line(7), 3), (build_cycle(5), 0)):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            ENTRY_POINTS[entry](g, v, -1)


def test_classical_one_vertex_line():
    # the line rule comes before the transition matrix, which a lone
    # vertex cannot have
    g = build_line(1)
    with pytest.raises(BoundaryOverflowError):
        evolve_classical_exact(g, 0, 1)
    with pytest.raises(ValueError, match="isolated"):
        evolve_classical_exact(g, 0, 0)


def test_density_headroom_counts_from_the_occupied_diagonal():
    g = build_line(9)
    rho = evolve_density(to_density(initial_state(g, 4)), SPEC, 2)
    evolve_density(rho, SPEC, 2)
    with pytest.raises(BoundaryOverflowError):
        evolve_density(rho, SPEC, 3)


def test_density_headroom_reads_the_modulus_of_the_diagonal():
    # the diagonal of a (non-physical) matrix may be imaginary; an entry
    # counts as occupied when it is nonzero
    g = build_line(7)
    matrix = np.zeros((g.half_edge_count, g.half_edge_count), dtype=complex)
    matrix[0, 0] = 1j  # the half-edge of vertex 0
    rho = DensityState(g, matrix)
    with pytest.raises(BoundaryOverflowError):
        evolve_density(rho, SPEC, 1)


ROUTES = {
    "coined": [],
    "density": ["--p", "0.1"],
    "trajectory": ["--p", "0.1", "--trajectories", "5", "--seed", "2"],
    "classical": ["--walk", "classical"],
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("start, budget", [(None, 3), ("1", 1), ("5", 1)])
def test_cli_walk_refuses_a_step_past_an_end(tmp_path, capsys, route, start, budget):
    argv = ["walk", "--graph", "line", "--num-positions", "7", *ROUTES[route]]
    if start is not None:
        argv += ["--start", start]
    ok = str(tmp_path / "ok.csv")
    assert cli.main(argv + ["--steps", str(budget), "-o", ok]) == 0
    capsys.readouterr()
    refused = str(tmp_path / "refused.csv")
    assert cli.main(argv + ["--steps", str(budget + 1), "-o", refused]) == 2
    assert "num-positions" in capsys.readouterr().err
    assert not (tmp_path / "refused.csv").exists()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_cli_default_line_fits_the_steps(tmp_path, route):
    out = str(tmp_path / "walk.csv")
    assert cli.main(["walk", "--graph", "line", "--steps", "6", *ROUTES[route],
                     "-o", out]) == 0
