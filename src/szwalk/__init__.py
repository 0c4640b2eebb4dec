"""SZ dynamical entropy of coined quantum walks, with classical baselines."""

from .classical import (TransitionMatrix, cycle_walk, entropy_rate, markov_entropy, matrix_power,
                        stationary_distribution)
from .entropy import ConvergenceReport, Partition, ProbVector, eta, limit_estimate
from .errors import (AccuracyError, NumericError, ResourceLimitError, SZWalkError,
                     UnsupportedConfigurationError, ValidationError)
from .quantum import (DensityState, Instrument, Operator, apply_instrument, coherent_instrument,
                      general_instrument, lvn_instrument, maximally_mixed, outcome_pmf,
                      pure_state)
from .sz import (ClassMasses, EntropyReport, MarkovReduction, RunOptions, SZRun,
                 cylinder_probability, dynamical_entropy, markov_reduction,
                 measurement_entropy, sz_entropy_run)
from .walks import (CoinedWalk, ShiftPermutation, coin_vertex_instrument, coined_walk,
                    hadamard_coin, hadamard_eigenstate, hadamard_walk, integer_shift,
                    position_instrument, unitary_power, vertex_partition)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "ClassMasses", "CoinedWalk", "ConvergenceReport", "DensityState",
    "EntropyReport", "Instrument", "MarkovReduction", "NumericError", "Operator", "Partition",
    "ProbVector", "ResourceLimitError", "RunOptions", "SZRun", "SZWalkError", "ShiftPermutation",
    "TransitionMatrix", "UnsupportedConfigurationError", "ValidationError",
    "apply_instrument", "coherent_instrument", "coin_vertex_instrument", "coined_walk",
    "cycle_walk", "cylinder_probability", "dynamical_entropy", "entropy_rate", "eta",
    "general_instrument", "hadamard_coin", "hadamard_eigenstate", "hadamard_walk",
    "integer_shift", "limit_estimate", "lvn_instrument", "markov_entropy", "markov_reduction",
    "matrix_power", "maximally_mixed", "measurement_entropy", "outcome_pmf",
    "position_instrument", "pure_state", "sz_entropy_run", "stationary_distribution",
    "unitary_power", "vertex_partition",
]
