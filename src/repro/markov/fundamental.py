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

try:  # scipy exposes the reusable LU factors that numpy's inv hides.
    from scipy.linalg import lu_factor as _lu_factor
    from scipy.linalg import lu_solve as _lu_solve
except ImportError:  # pragma: no cover - scipy is a declared dependency
    _lu_factor = None
    _lu_solve = None


class CoreFactorization:
    """One LU factorization of the core ``(I - P + W)``, reused everywhere.

    The fundamental matrix ``Z``, the first-passage times built from it,
    and the Schweitzer adjoints all reduce to solves against the same
    core matrix.  Factoring it once and applying the factors
    (``getrs``-style triangular solves) replaces the historical pattern
    of one ``solve`` plus one ``inv`` per iterate with a single dense
    decomposition.

    Falls back to re-solving via ``numpy.linalg.solve`` when scipy is
    unavailable.
    """

    def __init__(self, core: np.ndarray) -> None:
        self._core = core
        if _lu_factor is not None:
            self._lu = _lu_factor(core)
        else:  # pragma: no cover - scipy is a declared dependency
            self._lu = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - P + W) x = rhs`` using the cached factors."""
        if self._lu is not None:
            return _lu_solve(self._lu, rhs)
        return np.linalg.solve(self._core, rhs)  # pragma: no cover

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - P + W)^T x = rhs`` using the cached factors."""
        if self._lu is not None:
            return _lu_solve(self._lu, rhs, trans=1)
        return np.linalg.solve(self._core.T, rhs)  # pragma: no cover

    def full_inverse(self) -> np.ndarray:
        """The fundamental matrix ``Z`` — the core's full inverse.

        ``O(M^2)`` memory and ``O(M^3)`` work; the small-``M`` dense
        reference path.  Callers that only need ``Z @ v`` / ``v^T Z``
        should use targeted :meth:`solve` / :meth:`solve_transpose`.

        Computed by ``numpy.linalg.inv``, the routine the batched
        evaluator (:meth:`repro.core.cost.CoverageCost.batch_evaluate`)
        applies to a stack of cores, so a state built from scratch
        carries bit for bit the ``Z`` of the same matrix handed back by
        the line search.  (The LU factors' ``lu_solve`` against the
        identity differs from it in the last bits on some matrices.)
        """
        return np.linalg.inv(self._core)

    # Historical name, kept for callers predating the sparse path.
    inverse = full_inverse


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
