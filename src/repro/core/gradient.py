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
:class:`~repro.markov.sparse.SparseStationaryTemplate`) and builds the
dense ``(M, M)`` derivative only on request.  Each value is the same
floating-point expression the dense assembly evaluates at that entry, so
both agree bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.state import ChainState
from repro.core.terms import ObjectiveTerm
from repro.markov.perturbation import (
    adjoint_fundamental_term,
    adjoint_stationary_term,
)
from repro.utils.linalg import project_row_sum_zero


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


def support_derivative(
    state: ChainState, terms: Iterable[ObjectiveTerm], layout,
    full: bool = False,
):
    """``[D_P U]`` at a sparse state, on the support of ``layout``.

    Returns ``(values, dense)``: the ``(nnz,)`` derivative values, and
    the whole ``(M, M)`` derivative when ``full`` (else ``None``).  The
    terms' :meth:`~repro.core.terms.CostTerm.support_partials` are
    summed in term order, and each entry accumulates its pieces into a
    zero exactly as :func:`total_derivative` does: the stationary
    adjoint ``pi_j s_k``, then any ``Z``-adjoint, then ``dU/dP``.  The
    dense derivative is the outer product with the support values
    scattered in; off the support it adds each term's dense remainder.
    """
    grad_pi = grad_z = values = remainder = None
    for term in terms:
        part = term.support_partials(state, layout)
        grad_pi = _add(grad_pi, part.grad_pi)
        grad_z = _add(grad_z, part.grad_z)
        values = _add(values, part.values)
        remainder = _add(remainder, part.remainder)
    total = np.zeros(layout.nnz)
    # C order whatever the layout of ``state.p``: the support values are
    # scattered through a flat view, which only a C array gives.
    dense = np.zeros(state.p.shape) if full else None
    if grad_pi is not None:
        solved = state.solve_core(grad_pi)
        total += state.pi[layout.rows] * solved[layout.cols]
        if full:
            dense += np.outer(state.pi, solved)
    if grad_z is not None:
        adjoint = adjoint_fundamental_term(
            state.pi, state.dense_z(), grad_z, z2=state.z2
        )
        total += layout.values(adjoint)
        if full:
            dense += adjoint
    if values is not None:
        total += values
    if full:
        if remainder is not None:
            dense += remainder
        dense.reshape(-1)[layout.flat] = total
    return total, dense


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
