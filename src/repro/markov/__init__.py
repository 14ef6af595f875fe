"""Finite Markov chain substrate.

Everything the scheduling model needs from Markov chain theory, computed
with the group generalized inverse machinery of Meyer (1975) that the paper
adopts (Section III-B):

* stationary distributions (three independent solvers),
* the group inverse ``A# `` of ``A = I - P``,
* the fundamental matrix ``Z = (I - P + W)^{-1} = I + P A#``,
* expected first-passage times ``R = (I - Z + J Z_dg) D``,
* Schweitzer (1968) perturbation derivatives ``dpi = pi dP Z`` and
  ``dZ = Z dP Z - W dP Z^2``,
* entropy rate, ergodicity checks, and trajectory sampling.
"""

from repro.markov.chain import MarkovChain
from repro.markov.ergodicity import is_aperiodic, is_ergodic, is_irreducible
from repro.markov.stationary import (
    stationary_distribution,
    stationary_via_eigen,
    stationary_via_group_inverse,
    stationary_via_linear_solve,
    stationary_via_power_iteration,
)
from repro.markov.group_inverse import group_inverse
from repro.markov.fundamental import fundamental_matrix
from repro.markov.sparse import (
    SparseCoreSolver,
    sparse_fundamental_and_stationary,
    sparse_stationary,
)
from repro.markov.passage import (
    first_passage_times,
    first_passage_times_by_solve,
)
from repro.markov.perturbation import (
    stationary_derivative,
    fundamental_derivative,
)
from repro.markov.entropy import entropy_rate
from repro.markov.sampling import replay_uniforms, sample_path

__all__ = [
    "MarkovChain",
    "is_aperiodic",
    "is_ergodic",
    "is_irreducible",
    "stationary_distribution",
    "stationary_via_eigen",
    "stationary_via_group_inverse",
    "stationary_via_linear_solve",
    "stationary_via_power_iteration",
    "group_inverse",
    "fundamental_matrix",
    "SparseCoreSolver",
    "sparse_fundamental_and_stationary",
    "sparse_stationary",
    "first_passage_times",
    "first_passage_times_by_solve",
    "stationary_derivative",
    "fundamental_derivative",
    "entropy_rate",
    "replay_uniforms",
    "sample_path",
]
