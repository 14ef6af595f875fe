"""Reference sparse-path descent iteration, assembled on dense arrays.

The sparse descent (``linalg="sparse"`` with an adjacency support)
computes each iteration on the ``(nnz,)`` support values:
:func:`repro.core.gradient.support_derivative`, the template's
:meth:`~repro.markov.sparse.SparseStationaryTemplate.project`, and
:class:`~repro.core.perturbed.PerturbedWalk` drawing its noise there.
This module keeps a dense ``(M, M)`` assembly of the same contract:
every term's partials as dense matrices (the support coverage term's
leg inner from an ``M^2``-bin bincount), the stationary adjoint as
``np.outer``, the masked Eq. 11 projection, and ``nnz`` normals added
at the support before projecting.  Row sums run in support order, as
the sparse path sums them, and the recorded gradient norm follows the
sparse path's formula (:func:`gradient_norm`), read off the dense
arrays.  ``tests/core/test_support_iteration.py`` holds the support
assembly to it byte for byte, and ``benchmarks/perf/bench_largeM.py
--check-only`` does the same on a small grid.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.linesearch import feasible_step_bound
from repro.core.penalty import BarrierPenalty
from repro.core.registry import ScaledTerm
from repro.core.state import ChainState
from repro.core.terms import (
    ExposureTerm,
    SupportCoverageTerm,
    WorstExposureTerm,
)
from repro.markov.perturbation import adjoint_fundamental_term
from repro.utils.linalg import frobenius_norm, sum_of_squares


def _row_sums(matrix: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Row sums of ``matrix`` on ``support``, added in support order."""
    rows, _ = np.nonzero(support)
    return np.bincount(
        rows, weights=matrix[support], minlength=support.shape[0]
    )


def _project(matrix: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Eq. 11 restricted to ``support``, row means in support order."""
    means = _row_sums(matrix, support) / support.sum(axis=1)
    return np.where(support, matrix - means[:, None], 0.0)


def _coverage_partials(term: SupportCoverageTerm, state: ChainState):
    """``(dU/dpi, dU/dP)`` of the support coverage term, dense."""
    size, p, pi, support = term._size, state.p, state.pi, term._support
    weights = pi[term._j] * p[term._j, term._k] * term._t_val
    covered = np.bincount(term._i, weights=weights, minlength=size)
    total = float(pi @ _row_sums(p * term._t, support))
    weighted = term.alpha * (covered - term._phi * total)
    a_flat = np.bincount(
        term._j * size + term._k,
        weights=weighted[term._i] * term._t_val,
        minlength=size * size,
    )
    q = float(weighted @ term._phi)
    inner = a_flat.reshape(size, size) - q * term._t
    return (
        _row_sums(p * inner, support),
        np.where(support, pi[:, None] * inner, 0.0),
    )


def partials(term, state: ChainState):
    """``(grad_pi, grad_z, grad_p)`` of one term as dense arrays."""
    if isinstance(term, ScaledTerm):
        return tuple(
            None if piece is None else term.weight * piece
            for piece in partials(term.term, state)
        )
    if isinstance(term, SupportCoverageTerm):
        grad_pi, grad_p = _coverage_partials(term, state)
        return grad_pi, None, grad_p
    if isinstance(term, BarrierPenalty) and term.support is not None:
        grad_p = np.zeros_like(state.p)
        grad_p[term.support] = term.elementwise_grad(state.p[term.support])
        return None, None, grad_p
    if isinstance(term, (ExposureTerm, WorstExposureTerm)):
        # The sparse split: Z's chain folded into dU/dpi, dU/dP on the
        # diagonal.
        grad_pi, diagonal = term._sparse_partials(state)
        return grad_pi, None, np.diag(diagonal)
    return term.grad_pi(state), term.grad_z(state), term.grad_p(state)


def _summed_partials(state: ChainState, terms: Iterable):
    """``(grad_pi, grad_z, grad_p)`` summed over ``terms`` in order."""
    grad_pi = grad_z = grad_p = None
    for term in terms:
        pieces = partials(term, state)
        if pieces[0] is not None:
            grad_pi = pieces[0] if grad_pi is None else grad_pi + pieces[0]
        if pieces[1] is not None:
            grad_z = pieces[1] if grad_z is None else grad_z + pieces[1]
        if pieces[2] is not None:
            grad_p = pieces[2] if grad_p is None else grad_p + pieces[2]
    return grad_pi, grad_z, grad_p


def total_derivative(state: ChainState, terms: Iterable) -> np.ndarray:
    """``[D_P U]`` of a sparse state from dense partials (Eq. 10)."""
    grad_pi, grad_z, grad_p = _summed_partials(state, terms)
    result = np.zeros_like(state.p)
    if grad_pi is not None:
        result += np.outer(state.pi, state.solve_core(grad_pi))
    if grad_z is not None:
        result += adjoint_fundamental_term(
            state.pi, state.dense_z(), grad_z, z2=state.z2
        )
    if grad_p is not None:
        result += grad_p
    return result


def _keeps_dense_part(term, state: ChainState, support) -> bool:
    """Whether ``term``'s support split carries an ``(M, M)`` piece: a
    ``Z`` partial, or a dense ``dU/dP`` remainder."""
    if isinstance(term, ScaledTerm):
        return _keeps_dense_part(term.term, state, support)
    if isinstance(term, SupportCoverageTerm):
        return False
    if isinstance(term, BarrierPenalty) and term.support is not None:
        return False
    if isinstance(term, (ExposureTerm, WorstExposureTerm)):
        return not np.diag(support).all()
    return (
        term.grad_z(state) is not None or term.grad_p(state) is not None
    )


def gradient_norm(cost, state: ChainState) -> float:
    """The Frobenius norm of ``[D_P U]`` as the sparse path takes it.

    With no dense piece in any term, the support squares plus the
    outer product's off-support squares ``|pi|^2 |s|^2 - sum_support
    (pi_j s_k)^2``; otherwise the whole derivative's norm.
    """
    support = cost.support
    derivative = total_derivative(state, cost.terms)
    if any(
        _keeps_dense_part(term, state, support) for term in cost.terms
    ):
        return frobenius_norm(derivative)
    squares = sum_of_squares(derivative[support])
    grad_pi = _summed_partials(state, cost.terms)[0]
    if grad_pi is not None:
        solved = state.solve_core(grad_pi)
        off = (
            sum_of_squares(state.pi) * sum_of_squares(solved)
            - sum_of_squares(np.outer(state.pi, solved)[support])
        )
        squares += max(off, 0.0)
    return float(np.sqrt(squares))


def projected_gradient(cost, state: ChainState) -> np.ndarray:
    """``Pi [D_P U]`` (Eq. 11), the support-masked dense projection."""
    return _project(total_derivative(state, cost.terms), cost.support)


def begin_iteration(cost, state: ChainState, rng, options):
    """One walk iteration's ``(direction, gradient_norm, bound)``, dense.

    The arithmetic of :meth:`~repro.core.perturbed.PerturbedWalk.
    begin_iteration` on whole matrices: ``nnz`` normals are added to
    the dense derivative at the support, the masked projection
    follows, and the bound is taken over every entry.  Draws from
    ``rng`` as the walk does.
    """
    support = cost.support
    gradient = total_derivative(state, cost.terms)
    norm = None
    if options.PERTURBATION == "gaussian":
        norm = gradient_norm(cost, state)
        if options.sigma > 0.0:
            if options.relative_noise:
                rms = norm / state.p.size**0.5
                noise_scale = options.sigma * max(rms, 1e-300)
            else:
                noise_scale = options.sigma
            gradient[support] = gradient[support] + rng.normal(
                0.0, noise_scale, size=int(support.sum())
            )
    direction = -_project(gradient, support)
    if options.PERTURBATION == "none":
        norm = frobenius_norm(direction[support])
    return direction, norm, feasible_step_bound(state.p, direction)
