"""The public names of the package: one path per operation."""

import qwalksim
from qwalksim import cli, coined, graphs


def test_public_names_resolve_and_second_paths_are_gone():
    for name in qwalksim.__all__:
        assert hasattr(qwalksim, name), name
    # second paths to what CoinedWalk, Graph and --threads already do
    gone = {coined: ("coin_toss", "shift", "step", "evolve"),
            graphs: ("neighbors",),
            coined.CoinedWalk: ("inverse_step_amplitudes",),
            graphs.Graph: ("coin_offset",),
            cli: ("THREADS_ENV_VAR", "sweep_thread_count")}
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert not {"coin_toss", "shift", "step", "evolve", "neighbors"} & set(qwalksim.__all__)
