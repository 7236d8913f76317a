"""Fixtures shared by more than one test module."""

import numpy as np
import pytest

from qwalksim.continuous import SERIES_POINTS
from qwalksim.graphs import glued_trees_entrance_exit


def _full_graph_exit_signal(graph, gamma=1.0, t_max=None, num_times=SERIES_POINTS,
                            convention="laplacian"):
    """Exit-vertex probability on the full glued-trees graph, from its own dense
    ``eigh`` and one product over every time and vertex: the column chain's
    oracle at small depth, sharing no code with ``qwalksim.continuous``'s
    evolution."""
    entrance, exit_vertex = glued_trees_entrance_exit(graph)
    if t_max is None:
        t_max = 4.0 * graph.params["depth"]
    a = graph.adjacency_matrix()
    matrix = -gamma * a if convention == "adjacency" else gamma * (np.diag(a.sum(axis=1)) - a)
    vals, vecs = np.linalg.eigh(matrix)
    times = np.linspace(0.0, t_max, num_times)
    amps = (np.exp(-1j * np.outer(times, vals)) * vecs[entrance]) @ vecs.T
    return times, np.abs(amps[:, exit_vertex]) ** 2


@pytest.fixture
def full_graph_exit_signal():
    return _full_graph_exit_signal
