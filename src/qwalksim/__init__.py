"""Quantum and classical random walks on graphs.

Coined discrete-time walks with tunable per-step measurement, exact
continuous-time walks with the glued-trees column reduction, and classical
chain baselines, plus the analytics connecting them (moments, total
variation, time-averaged mixing).
"""

from .classical import (HittingTimeResult, evolve_classical_exact, hitting_time,
                        hitting_time_exact, sample_walk)
from .coined import CoinedWalk, PureState, coin_matrix, initial_state
from .continuous import (Hamiltonian, evolve_ct, exit_signal, first_peak_time,
                         hamiltonian, reduce_columns)
from .decoherence import (DecoherenceSpec, DensityState, apply_channel,
                          evolve_density, evolve_trajectory, run_ensemble,
                          to_density)
from .errors import (BoundaryOverflowError, ConfigError, InvariantViolationError,
                     MissingSeedError, UnsupportedDegreeError)
from .graphs import (GlueSpec, Graph, build_cycle, build_glued_trees,
                     build_hypercube, build_line)
from .stats import (Distribution, flatness_tv, mixing_time, position_distribution,
                    std_dev, total_variation)

__version__ = "0.1.0"

__all__ = [
    "BoundaryOverflowError",
    "CoinedWalk",
    "ConfigError",
    "DecoherenceSpec",
    "DensityState",
    "Distribution",
    "GlueSpec",
    "Graph",
    "Hamiltonian",
    "HittingTimeResult",
    "InvariantViolationError",
    "MissingSeedError",
    "PureState",
    "UnsupportedDegreeError",
    "apply_channel",
    "build_cycle",
    "build_glued_trees",
    "build_hypercube",
    "build_line",
    "coin_matrix",
    "evolve_classical_exact",
    "evolve_ct",
    "evolve_density",
    "evolve_trajectory",
    "exit_signal",
    "first_peak_time",
    "flatness_tv",
    "hamiltonian",
    "hitting_time",
    "hitting_time_exact",
    "initial_state",
    "mixing_time",
    "position_distribution",
    "reduce_columns",
    "run_ensemble",
    "sample_walk",
    "std_dev",
    "to_density",
    "total_variation",
    "__version__",
]
