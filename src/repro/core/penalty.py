"""The log-barrier penalty of Eq. (9).

Keeps the descent iterates strictly inside the open box ``0 < p_ij < 1``.
Per entry ``p`` the penalty is

    ``phi(p) = -(1/eps) ln(p) (eps - p)^2          if p <= eps``
    ``       + -(1/eps) ln(1 - p) (1 - eps - p)^2  if p >= 1 - eps``

(and zero in the interior band).  ``phi -> +inf`` as ``p -> 0`` or
``p -> 1``, so steepest descent — which only ever decreases the cost along
its line search — cannot cross the boundary.  The quadratic factors vanish
at the band edges, making ``phi`` continuously differentiable there.

The term depends on ``P`` only: no ``pi`` or ``Z`` partials.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import ChainState
from repro.core.terms import ObjectiveTerm, SupportPartials, TermBatch
from repro.utils.linalg import scatter_flat
from repro.utils.validation import check_positive


class BarrierPenalty(ObjectiveTerm):
    """Eq. (9)'s penalization term with band width ``eps``.

    A boolean ``support`` mask restricts the barrier to feasible
    transitions: off-support entries are pinned at exactly zero by the
    support-aware projection, and without the mask their ``-ln(0)``
    contribution would make every support-restricted iterate infinite.
    """

    def __init__(self, epsilon: float = 1e-4, support=None) -> None:
        self.epsilon = check_positive("epsilon", epsilon)
        if self.epsilon >= 0.5:
            raise ValueError(
                f"epsilon must be < 0.5 so the two bands do not overlap, "
                f"got {self.epsilon}"
            )
        self.support = None if support is None else np.asarray(
            support, dtype=bool
        )
        # The support's flat positions: gathering them reads the
        # entries ``p[support]`` reads, in the same order.
        self._flat = None if support is None else np.flatnonzero(
            self.support
        )

    # ------------------------------------------------------------------ #
    # Scalar pieces, vectorized over arrays
    # ------------------------------------------------------------------ #

    def elementwise_value(self, p: np.ndarray) -> np.ndarray:
        """Per-entry penalty ``phi(p_ij)``; ``+inf`` at the boundary."""
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("penalty is defined on [0, 1] entries only")
        eps = self.epsilon
        result = np.zeros_like(p)
        lower = p <= eps
        upper = p >= 1.0 - eps
        with np.errstate(divide="ignore"):
            result[lower] = (
                -np.log(p[lower]) * (eps - p[lower]) ** 2 / eps
            )
            result[upper] = (
                -np.log(1.0 - p[upper]) * (1.0 - eps - p[upper]) ** 2 / eps
            )
        return result

    def elementwise_grad(self, p: np.ndarray) -> np.ndarray:
        """Per-entry derivative ``phi'(p_ij)``; ``-inf``/``+inf`` at 0/1."""
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("penalty is defined on [0, 1] entries only")
        eps = self.epsilon
        grad = np.zeros_like(p)
        lower = p <= eps
        upper = p >= 1.0 - eps
        with np.errstate(divide="ignore", invalid="ignore"):
            pl = p[lower]
            # d/dp [-ln(p)(eps-p)^2 / eps]
            grad[lower] = (
                -((eps - pl) ** 2) / pl + 2.0 * (eps - pl) * np.log(pl)
            ) / eps
            pu = p[upper]
            # d/dp [-ln(1-p)(1-eps-p)^2 / eps]
            grad[upper] = (
                (1.0 - eps - pu) ** 2 / (1.0 - pu)
                + 2.0 * (1.0 - eps - pu) * np.log(1.0 - pu)
            ) / eps
        return grad

    # ------------------------------------------------------------------ #
    # ObjectiveTerm interface
    # ------------------------------------------------------------------ #

    def _entries(self, p: np.ndarray) -> np.ndarray:
        """The entries the barrier covers: all, or the supported ones."""
        if self._flat is None:
            return p
        return p.reshape(-1)[self._flat]

    def value(self, state: ChainState) -> float:
        return float(self.elementwise_value(self._entries(state.p)).sum())

    def grad_p(self, state: ChainState) -> np.ndarray:
        grad = self.elementwise_grad(self._entries(state.p))
        if self._flat is None:
            return grad
        return scatter_flat(self._flat, grad, state.size)

    def support_partials(self, state: ChainState, layout) -> SupportPartials:
        if self._flat is None:
            return super().support_partials(state, layout)
        return SupportPartials(
            None, None, self.elementwise_grad(self._entries(state.p)), None
        )

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        """Per-probe barrier values, restricted to supported entries.

        Only feasible rows (``batch.ok``) with an entry inside a band are
        evaluated: infeasible ones map to ``+inf`` anyway, and entries
        outside ``[0, 1]`` would make ``elementwise_value`` raise.
        Support-value batches (``batch.entries``) are already the
        supported entries, in the order ``stack[:, support]`` gathers.
        """
        entries = batch.entries
        if entries is None:
            stack = batch.stack
            entries = (
                stack if self.support is None else stack[:, self.support]
            )
        eps = self.epsilon
        in_band = (entries <= eps) | (entries >= 1.0 - eps)
        rows_with_band = (
            in_band.reshape(len(entries), -1).any(axis=1) & batch.ok
        )
        penalty = np.zeros(len(entries))
        for index in np.nonzero(rows_with_band)[0]:
            penalty[index] = float(
                self.elementwise_value(entries[index]).sum()
            )
        return penalty
