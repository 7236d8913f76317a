"""The public names of the package: one path per operation."""

import os
import subprocess
import sys

import numpy as np

import qwalksim
from qwalksim import classical, cli, coined, continuous, decoherence, graphs, stats


def test_public_names_resolve_and_second_paths_are_gone():
    for name in qwalksim.__all__:
        assert hasattr(qwalksim, name), name
    # second paths to what CoinedWalk and Graph already do, knobs that
    # gained nothing, and names that nothing but their own tests called
    gone = [(coined, ("coin_toss", "shift", "step", "evolve", "_apply_coin", "_plan_bytes")),
            (graphs, ("neighbors", "dump_edge_list")),
            (stats, ("central_std_dev", "uniform_distribution", "time_averaged",
                     "flatness_ratio")),
            (continuous, ("threshold_crossing_time", "entrance_state", "evolve_ct_many",
                         "full_graph_exit_signal")),
            (decoherence, ("record_to_csv", "_full_matrix", "_dephasing_factors",
                           "_SupportMap")),
            (coined.CoinedWalk, ("inverse_step_amplitudes", "coin_toss", "shift", "step_rows",
                                "copies", "support_plan", "step_support")),
            (coined.PureState, ("amplitude", "copy")),
            (decoherence.DensityState, ("purity", "copy")),
            (graphs.Graph, ("coin_offset", "direction_index", "half_edge")),
            (qwalksim, ("ClassicalDistribution", "flatness_ratio")),
            (classical, ("ClassicalDistribution", "transition_matrix")),
            (classical.HittingTimeResult, ("censored_fraction",)),
            # settable values, looked up on instances: dataclass fields and
            # attributes set in __init__ live there
            (stats.Distribution(np.ones(1)), ("metadata",)),
            (continuous.Hamiltonian(np.eye(1)), ("basis", "gamma")),
            (decoherence.DensityState(graphs.build_cycle(3), np.eye(6) / 6), ("matrix",)),
            (coined.CoinedWalk(graphs.build_line(5)), ("_readers",)),
            (cli, ("THREADS_ENV_VAR", "sweep_thread_count"))]
    for owner, names in gone:
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert not {"coin_toss", "shift", "step", "evolve", "neighbors",
                "time_averaged"} & set(qwalksim.__all__)


def test_the_command_line_does_not_import_scipy_signal():
    # scipy.signal took most of every qwalksim process's start-up
    src = os.path.dirname(os.path.dirname(qwalksim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, qwalksim.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout == "False\n"
