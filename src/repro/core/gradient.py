"""Assembly of the total cost derivative ``[D_P U]`` (Eq. 10).

Combines each term's partials with the Schweitzer adjoints:

    ``[D_P U]_kl = pi_k (Z dU/dpi)_l
                 + (Z^T dU/dZ Z^T)_kl - pi_k (Z^2 colsum(dU/dZ))_l
                 + (dU/dP)_kl``

then projects onto the row-sum-zero subspace (Eq. 11) so a step along the
negative projected gradient preserves row-stochasticity exactly.

On the sparse path only the entries of ``P`` on the adjacency support
can move, so :func:`support_derivative` assembles ``[D_P U]`` on the
support values (the layout of
:class:`~repro.markov.sparse.SparseStationaryTemplate`) and keeps the
off-support part as the pieces it is made of: the dense ``(M, M)``
derivative is built only on request, and its Frobenius norm, which the
perturbed walk records and scales its noise by, comes from the support
values and two ``M``-vectors.  Each value is the same floating-point
expression the dense assembly evaluates at that entry.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.core.state import ChainState
from repro.core.terms import ObjectiveTerm
from repro.markov.perturbation import (
    adjoint_fundamental_term,
    adjoint_stationary_term,
)
from repro.utils.linalg import (
    frobenius_norm,
    project_row_sum_zero,
    sum_of_squares,
)


def accumulate_partials(state: ChainState, terms: Iterable[ObjectiveTerm]):
    """Sum each kind of partial over ``terms``.

    Returns ``(grad_pi, grad_z, grad_p)``; any of them is ``None`` when no
    term contributes, letting the caller skip the corresponding adjoint.
    """
    grad_pi: Optional[np.ndarray] = None
    grad_z: Optional[np.ndarray] = None
    grad_p: Optional[np.ndarray] = None
    for term in terms:
        piece = term.grad_pi(state)
        if piece is not None:
            grad_pi = piece if grad_pi is None else grad_pi + piece
        piece = term.grad_z(state)
        if piece is not None:
            grad_z = piece if grad_z is None else grad_z + piece
        piece = term.grad_p(state)
        if piece is not None:
            grad_p = piece if grad_p is None else grad_p + piece
    return grad_pi, grad_z, grad_p


def total_derivative(
    state: ChainState, terms: Iterable[ObjectiveTerm]
) -> np.ndarray:
    """The unprojected total derivative ``[D_P U]`` at a dense ``state``.

    Both adjoints read the state's explicit ``Z``; a sparse state's
    derivative is :func:`support_derivative`.
    """
    grad_pi, grad_z, grad_p = accumulate_partials(state, terms)
    result = np.zeros_like(state.p)
    if grad_pi is not None:
        result += adjoint_stationary_term(state.pi, state.z, grad_pi)
    if grad_z is not None:
        result += adjoint_fundamental_term(
            state.pi, state.z, grad_z, z2=state.z2
        )
    if grad_p is not None:
        result += grad_p
    return result


def _add(total, piece):
    """``total + piece``, where ``None`` is an absent (zero) addend."""
    if piece is None:
        return total
    return piece if total is None else total + piece


class SupportDerivative(NamedTuple):
    """``[D_P U]`` at a sparse state: its support values, and what its
    off-support entries are made of.

    Off the support the derivative is the stationary adjoint
    ``pi_j s_k`` (``s`` solves the core against ``dU/dpi``), plus a
    ``Z``-adjoint and the terms' dense ``dU/dP`` remainders when a term
    has them.  Only those two pieces are ``(M, M)`` arrays.
    """

    values: np.ndarray            # (nnz,) derivative on the support
    pi: np.ndarray                # (M,) stationary distribution
    solved: Optional[np.ndarray]  # (M,) s = core^{-1} dU/dpi
    outer: Optional[np.ndarray]   # (nnz,) pi_j s_k on the support
    adjoint: Optional[np.ndarray]    # (M, M) Z-adjoint
    remainder: Optional[np.ndarray]  # (M, M) terms' dense dU/dP

    def dense(self, layout) -> np.ndarray:
        """The whole ``(M, M)`` derivative: the off-support pieces
        accumulated into a zero as :func:`total_derivative` does, with
        the support values scattered in."""
        # C order, so the support values scatter through a flat view.
        dense = np.zeros((layout.size, layout.size))
        if self.solved is not None:
            dense += np.outer(self.pi, self.solved)
        if self.adjoint is not None:
            dense += self.adjoint
        if self.remainder is not None:
            dense += self.remainder
        dense.reshape(-1)[layout.flat] = self.values
        return dense

    def norm(self, layout) -> float:
        """The Frobenius norm of :meth:`dense`, in ``O(nnz + M)`` when no
        term carries a dense piece.

        The off-support squares of the outer product are
        ``|pi|^2 |s|^2 - sum_support (pi_j s_k)^2``; every sum is a
        :func:`~repro.utils.linalg.sum_of_squares`, so the norm does not
        depend on the BLAS thread count.  With a ``Z``-adjoint or a
        remainder the whole derivative is summed instead.
        """
        if self.adjoint is not None or self.remainder is not None:
            return frobenius_norm(self.dense(layout))
        squares = sum_of_squares(self.values)
        if self.solved is not None:
            off = (
                sum_of_squares(self.pi) * sum_of_squares(self.solved)
                - sum_of_squares(self.outer)
            )
            squares += max(off, 0.0)
        return float(np.sqrt(squares))


def support_derivative(
    state: ChainState, terms: Iterable[ObjectiveTerm], layout
) -> SupportDerivative:
    """``[D_P U]`` at a sparse state, on the support of ``layout``.

    The terms' :meth:`~repro.core.terms.CostTerm.support_partials` are
    summed in term order, and each support value accumulates its pieces
    into a zero exactly as :func:`total_derivative` does: the stationary
    adjoint ``pi_j s_k``, then any ``Z``-adjoint, then ``dU/dP``.  No
    ``(M, M)`` array is built unless a term has a ``Z`` partial or a
    dense remainder.
    """
    grad_pi = grad_z = values = remainder = None
    for term in terms:
        part = term.support_partials(state, layout)
        grad_pi = _add(grad_pi, part.grad_pi)
        grad_z = _add(grad_z, part.grad_z)
        values = _add(values, part.values)
        remainder = _add(remainder, part.remainder)
    total = np.zeros(layout.nnz)
    solved = outer = adjoint = None
    if grad_pi is not None:
        solved = state.solve_core(grad_pi)
        outer = state.pi[layout.rows] * solved[layout.cols]
        total += outer
    if grad_z is not None:
        adjoint = adjoint_fundamental_term(
            state.pi, state.dense_z(), grad_z, z2=state.z2
        )
        total += layout.values(adjoint)
    if values is not None:
        total += values
    return SupportDerivative(
        total, state.pi, solved, outer, adjoint, remainder
    )


def projected_gradient(
    state: ChainState,
    terms: Iterable[ObjectiveTerm],
    support: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``Pi [D_P U]`` — the gradient within the stochastic-matrix manifold.

    A boolean ``support`` mask additionally restricts the projection to
    directions vanishing off the feasible-transition pattern.
    """
    return project_row_sum_zero(total_derivative(state, terms), support)


def directional_derivative(
    state: ChainState,
    terms: Iterable[ObjectiveTerm],
    direction: np.ndarray,
) -> float:
    """``<[D_P U], direction>`` — rate of change of ``U`` along ``direction``.

    ``direction`` should have zero row sums for the value to be meaningful
    as a derivative along a stochastic-matrix path; this is not enforced so
    tests can probe the unprojected derivative as well.
    """
    return float(np.sum(total_derivative(state, terms) * direction))
