"""Incremental ``(pi, Z)``-solve updates across accepted descent steps.

An accepted step replaces the transition matrix ``P0`` with ``P'`` that
differs in a handful of rows (a single-row resampling move, a localized
repair, a team hand-off).  Refactorizing the core from scratch then
wastes the previous factorization; the Schweitzer perturbation calculus
says the new quantities are *low-rank corrections* of the old ones, and
this module applies them exactly.

**Stationary update.**  Write ``P' = P0 + sum_k e_{i_k} delta_k^T`` with
``delta_k . 1 = 0`` (both matrices are row-stochastic).  From
``pi'^T (I - P') = 0`` and ``pi0^T Z0 = pi0^T``:

    ``pi'^T = pi0^T + sum_k pi'_{i_k} x_k^T``,  ``x_k = Z0^T delta_k``,

which is the Schweitzer identity ``dpi = pi dP Z`` resummed to *finite*
row perturbations.  The unknown changed-row masses
``c_k = pi'_{i_k}`` solve the tiny ``r x r`` system
``(I - X) c = pi0[rows]`` with ``X[l, k] = x_k[i_l]``; each ``x_k`` is
one transpose solve against the cached base factorization.  Because
``Z0 1 = 1`` forces ``x_k . 1 = delta_k . 1 = 0``, the update preserves
normalization automatically.

**Core-solve update.**  The new core differs from the old by
``A' - A0 = 1 dpi^T - dP``, a matrix of rank at most ``r + 1``, so
solves against ``A'`` follow from the cached base solves via one
Woodbury correction (:class:`WoodburyCoreSolver`).

**Drift monitor.**  Floating-point error compounds as corrections stack
on an aging base, so each update is verified: the updated ``pi'`` must
satisfy its balance equations and a probe solve against ``A'`` must hit
its residual tolerance, else the tracker discards the corrections and
refactorizes from scratch.  A rank cap and a staleness cap bound the
correction size regardless.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.markov.sparse import (
    SparseCoreSolver,
    changed_rows,
    sparse_stationary,
)
from repro.utils import perf

#: Default maximum number of changed rows handled incrementally.
DEFAULT_RANK_CAP = 16
#: Default residual tolerance of the drift monitor.
DEFAULT_DRIFT_TOL = 1e-8
#: Default number of incremental updates before a forced refactorization.
DEFAULT_MAX_UPDATES = 64


class WoodburyCoreSolver:
    """Solves against ``A' = A0 + U V^T`` through a cached base solver.

    ``U = [-e_{i_1}, ..., -e_{i_r}, 1]`` and
    ``V^T = [delta_1^T; ...; delta_r^T; dpi^T]`` encode the row
    perturbation plus the rank-one ``W``-shift of the core.  Each solve
    costs one base solve plus an ``(r+1) x (r+1)`` correction:

        ``A'^{-1} b = y - ZU (I + V^T ZU)^{-1} V^T y``, ``y = A0^{-1} b``.

    Exposes the same contract as
    :class:`~repro.markov.sparse.SparseCoreSolver` so chain states hold
    either interchangeably.
    """

    def __init__(
        self,
        base: SparseCoreSolver,
        rows: np.ndarray,
        deltas: np.ndarray,
        dpi: np.ndarray,
    ) -> None:
        size = base.size
        rank = rows.size + 1
        u = np.zeros((size, rank))
        u[rows, np.arange(rows.size)] = -1.0
        u[:, -1] = 1.0
        vt = np.vstack([deltas, dpi[None, :]])  # (r+1, M)
        self.size = size
        self._base = base
        self._vt = vt
        self._zu = base.solve(u)
        self._ztv = base.solve_transpose(vt.T)
        self._cap = np.eye(rank) + vt @ self._zu
        self._ut = u.T

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A' x = rhs`` (vector or stacked columns)."""
        y = self._base.solve(rhs)
        correction = np.linalg.solve(self._cap, self._vt @ y)
        return y - self._zu @ correction

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A'^T x = rhs`` (vector or stacked columns)."""
        y = self._base.solve_transpose(rhs)
        correction = np.linalg.solve(self._cap.T, self._ut @ y)
        return y - self._ztv @ correction

    def full_inverse(self) -> np.ndarray:
        """The dense corrected inverse — small-``M`` reference only."""
        return np.ascontiguousarray(self.solve(np.eye(self.size)))


class IncrementalCoreTracker:
    """Reuses one sparse factorization across nearby transition matrices.

    :meth:`acquire` hands back ``(pi, solver)`` for a matrix.  When the
    matrix differs from the tracked base in at most ``rank_cap`` rows,
    the answer is assembled from the cached base factorization — the
    exact resummed Schweitzer update for ``pi`` plus a
    :class:`WoodburyCoreSolver` for the core — and verified by the
    drift monitor; otherwise (or on any verification failure) the
    tracker refactorizes from scratch and rebases.

    Counters (also mirrored into the ambient
    :mod:`repro.utils.perf` scope): ``incremental_updates`` /
    ``refactorizations`` / ``drift_refactorizations``.
    """

    def __init__(
        self,
        rank_cap: int = DEFAULT_RANK_CAP,
        drift_tol: float = DEFAULT_DRIFT_TOL,
        max_updates: int = DEFAULT_MAX_UPDATES,
        stationary_solver=None,
    ) -> None:
        if rank_cap < 1:
            raise ValueError(f"rank_cap must be >= 1, got {rank_cap}")
        if drift_tol <= 0:
            raise ValueError(f"drift_tol must be > 0, got {drift_tol}")
        if max_updates < 1:
            raise ValueError(
                f"max_updates must be >= 1, got {max_updates}"
            )
        self.rank_cap = int(rank_cap)
        self.drift_tol = float(drift_tol)
        self.max_updates = int(max_updates)
        # Optional SparseStationaryTemplate (or anything exposing
        # ``solve(matrix) -> pi``) to amortize stationary-system assembly
        # across refactorizations on a fixed support pattern.
        self._stationary_solver = stationary_solver
        self._base_p: Optional[np.ndarray] = None
        self._base_pi: Optional[np.ndarray] = None
        self._base_solver: Optional[SparseCoreSolver] = None
        self._updates_since_rebase = 0
        self.incremental_updates = 0
        self.refactorizations = 0
        self.drift_refactorizations = 0

    # ------------------------------------------------------------------ #

    def acquire(self, matrix: np.ndarray, pi: Optional[np.ndarray] = None):
        """``(pi, solver)`` for ``matrix``, incrementally when possible.

        ``pi`` may be supplied by callers who already solved the
        stationary system (e.g. the batched line search); it is trusted
        and only the core solver is corrected.
        """
        matrix = np.array(matrix, dtype=float)
        if self._base_p is None:
            return self._refactor(matrix, pi)
        rows = changed_rows(self._base_p, matrix)
        if rows.size == 0:
            return (
                self._base_pi if pi is None else np.asarray(pi, float),
                self._base_solver,
            )
        # Row selection is tolerance-aware: rows whose perturbation is
        # below drift_tol / M are left to the drift monitor (their total
        # contribution to the probe residual is bounded by drift_tol),
        # so a near-converged step that nudges every row infinitesimally
        # but moves only a few materially still counts as low-rank.
        neglect = self.drift_tol / matrix.shape[0]
        major = changed_rows(self._base_p, matrix, atol=neglect)
        if (
            major.size > self.rank_cap
            or self._updates_since_rebase >= self.max_updates
        ):
            perf.count("incremental_refactorizations")
            return self._refactor(matrix, pi)
        attempt = self._try_incremental(matrix, major, pi)
        if attempt is None:
            self.drift_refactorizations += 1
            perf.count("incremental_refactorizations")
            return self._refactor(matrix, pi)
        return attempt

    # ------------------------------------------------------------------ #

    def _refactor(self, matrix: np.ndarray, pi):
        """Fresh factorization; ``matrix`` becomes the new base."""
        if pi is None:
            pi = (
                sparse_stationary(matrix)
                if self._stationary_solver is None
                else self._stationary_solver.solve(matrix)
            )
        else:
            pi = np.asarray(pi, dtype=float)
        solver = SparseCoreSolver(matrix, pi)
        self._base_p = matrix
        self._base_pi = pi
        self._base_solver = solver
        self._updates_since_rebase = 0
        self.refactorizations += 1
        return pi, solver

    def _try_incremental(self, matrix, rows, pi):
        """One verified low-rank update, or ``None`` on drift."""
        base_pi = self._base_pi
        deltas = matrix[rows] - self._base_p[rows]  # (r, M)
        if pi is None:
            # x_k = Z0^T delta_k, stacked as columns of (M, r).
            x = self._base_solver.solve_transpose(deltas.T)
            small = np.eye(rows.size) - x[rows, :]
            try:
                masses = np.linalg.solve(small, base_pi[rows])
            except np.linalg.LinAlgError:
                return None
            pi_new = base_pi + x @ masses
            # Drift monitor, part 1: the updated pi must satisfy its own
            # balance equations against the *new* matrix.
            residual = np.abs(pi_new - matrix.T @ pi_new).max()
            if (
                not np.all(np.isfinite(pi_new))
                or pi_new.min() <= 0.0
                or residual > self.drift_tol
            ):
                return None
            pi_new = pi_new / pi_new.sum()
        else:
            pi_new = np.asarray(pi, dtype=float)
        solver = WoodburyCoreSolver(
            self._base_solver, rows, deltas, pi_new - base_pi
        )
        # Drift monitor, part 2: probe solve against the true new core
        # A' x = b, with A' applied matrix-free as x - P'x + 1 (pi'.x).
        probe = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
        x = solver.solve(probe)
        residual = np.abs(
            x - matrix @ x + np.dot(pi_new, x) - probe
        ).max()
        if not np.isfinite(residual) or residual > self.drift_tol:
            return None
        self._updates_since_rebase += 1
        self.incremental_updates += 1
        perf.count("incremental_updates")
        return pi_new, solver
