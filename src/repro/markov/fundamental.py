"""The fundamental matrix ``Z`` of an ergodic chain.

``Z = (I - P + W)^{-1}`` (Kemeny-Snell), related to the group inverse by
the paper's Eq. (7): ``Z = I + P A#``.  ``Z`` is the object actually used
in the numerical computation of first-passage times (Eq. 8) and of the
Schweitzer perturbation formulas.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.markov.stationary import stationary_via_linear_solve
from repro.utils.validation import check_square


class CoreFactorization:
    """One LU factorization of the core ``(I - P + W)`` for repeated solves.

    Targeted products ``Z @ v`` / ``v^T Z`` (first-passage quantities,
    Schweitzer adjoints) reduce to solves against the core; factoring it
    once and applying the factors (``getrs``-style triangular solves)
    serves any number of them.  A dense
    :class:`~repro.core.state.ChainState` builds one lazily, on its
    first :meth:`~repro.core.state.ChainState.solve_core`; its ``Z``
    comes from :func:`fundamental_matrix` instead.

    scipy is imported here, on first use, not with the package: dense
    descents and simulations never solve against the core, so their
    worker processes start without it.
    """

    def __init__(self, core: np.ndarray) -> None:
        from scipy.linalg import lu_factor

        self._lu = lu_factor(core)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - P + W) x = rhs`` using the cached factors."""
        from scipy.linalg import lu_solve

        return lu_solve(self._lu, rhs)

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - P + W)^T x = rhs`` using the cached factors."""
        from scipy.linalg import lu_solve

        return lu_solve(self._lu, rhs, trans=1)


def factor_core(matrix: np.ndarray, pi: np.ndarray) -> CoreFactorization:
    """Factor ``(I - P + W)`` once for reuse across ``Z``/``R``/adjoints.

    ``pi`` is trusted as-is (callers own its accuracy), mirroring
    :func:`fundamental_matrix`.
    """
    matrix = check_square("matrix", matrix)
    pi = np.asarray(pi, dtype=float)
    w = np.tile(pi, (matrix.shape[0], 1))
    return CoreFactorization(np.eye(matrix.shape[0]) - matrix + w)


def fundamental_matrix(
    matrix: np.ndarray, pi: Optional[np.ndarray] = None
) -> np.ndarray:
    """Fundamental matrix ``Z = (I - P + W)^{-1}``.

    ``pi`` may be supplied to avoid recomputing the stationary
    distribution; it is trusted as-is (callers own its accuracy).

    Computed by ``numpy.linalg.inv``, the routine the batched evaluator
    (:meth:`repro.core.cost.CoverageCost.batch_evaluate`) applies to a
    stack of cores, so a state built from scratch carries bit for bit
    the ``Z`` of the same matrix handed back by the line search.  (An
    LU's ``lu_solve`` against the identity differs from it in the last
    bits on some matrices.)
    """
    matrix = check_square("matrix", matrix)
    if pi is None:
        pi = stationary_via_linear_solve(matrix)
    else:
        pi = np.asarray(pi, dtype=float)
        if pi.shape != (matrix.shape[0],):
            raise ValueError(
                f"pi must have shape ({matrix.shape[0]},), got {pi.shape}"
            )
    w = np.tile(pi, (matrix.shape[0], 1))
    return np.linalg.inv(np.eye(matrix.shape[0]) - matrix + w)


def fundamental_and_stationary(
    matrix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(Z, pi)`` computed consistently in one call."""
    matrix = check_square("matrix", matrix)
    pi = stationary_via_linear_solve(matrix)
    return fundamental_matrix(matrix, pi), pi


def fundamental_from_group_inverse(
    matrix: np.ndarray, a_sharp: np.ndarray
) -> np.ndarray:
    """Eq. (7): ``Z = I + P A#`` — used by tests to cross-check solvers."""
    matrix = check_square("matrix", matrix)
    a_sharp = check_square("a_sharp", a_sharp)
    return np.eye(matrix.shape[0]) + matrix @ a_sharp
