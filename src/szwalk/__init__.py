"""SZ dynamical entropy of coined quantum walks, with classical baselines."""

from .classical import (FiniteMap, TransitionMatrix, cycle_walk, entropy_rate, ks_estimate,
                        markov_entropy, matrix_power, process_joint_entropy,
                        stationary_distribution)
from .entropy import (ConvergenceReport, JointDistribution, Partition, ProbVector,
                      conditional_entropy, entropy, eta, is_coarser, join, joint_entropy,
                      limit_estimate)
from .errors import (AccuracyError, NumericError, ResourceLimitError, SZWalkError,
                     UnsupportedConfigurationError, ValidationError)
from .quantum import (DensityState, Instrument, Operator, apply_instrument, coherent_instrument,
                      general_instrument, lvn_instrument, maximally_mixed, outcome_pmf,
                      pure_state)
from .sz import (ClassMasses, EntropyReport, MarkovReduction, RunOptions, SZRun,
                 cs_transition_matrix, cylinder_probability, dynamical_entropy,
                 markov_reduction, measurement_entropy, sz_entropy_run)
from .walks import (CoinedWalk, ShiftPermutation, coin_vertex_instrument, coined_walk,
                    eigencheck, hadamard_coin, hadamard_eigenstate, hadamard_walk,
                    integer_shift, position_instrument, unitary_power, vertex_partition)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "ClassMasses", "CoinedWalk", "ConvergenceReport", "DensityState",
    "EntropyReport", "FiniteMap", "Instrument", "JointDistribution",
    "MarkovReduction", "NumericError", "Operator", "Partition", "ProbVector",
    "ResourceLimitError", "RunOptions", "SZRun", "SZWalkError", "ShiftPermutation",
    "TransitionMatrix", "UnsupportedConfigurationError", "ValidationError",
    "apply_instrument", "coherent_instrument", "coin_vertex_instrument", "coined_walk",
    "conditional_entropy", "cs_transition_matrix", "cycle_walk", "cylinder_probability",
    "dynamical_entropy", "eigencheck", "entropy", "entropy_rate", "eta", "general_instrument",
    "hadamard_coin", "hadamard_eigenstate", "hadamard_walk", "integer_shift", "is_coarser",
    "join", "joint_entropy", "ks_estimate", "limit_estimate", "lvn_instrument",
    "markov_entropy", "markov_reduction", "matrix_power", "maximally_mixed",
    "measurement_entropy", "outcome_pmf", "position_instrument", "process_joint_entropy",
    "pure_state", "sz_entropy_run", "stationary_distribution", "unitary_power",
    "vertex_partition",
]
