"""Reference sparse-path descent iteration, assembled on dense arrays.

The sparse descent (``linalg="sparse"`` with an adjacency support)
computes each iteration on the ``(nnz,)`` support values:
:func:`repro.core.gradient.support_derivative`, the template's
:meth:`~repro.markov.sparse.SparseStationaryTemplate.project`, and
:class:`~repro.core.perturbed.PerturbedWalk` gathering its noise.  This
module keeps the dense ``(M, M)`` assembly those replaced: every term's
partials as dense matrices (the support coverage term's leg inner from
an ``M^2``-bin bincount), the stationary adjoint as ``np.outer``, the
masked Eq. 11 projection, and the full noise matrix added before
projecting.  ``tests/core/test_support_iteration.py`` holds the support
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
from repro.utils.linalg import frobenius_norm, project_row_sum_zero


def _coverage_partials(term: SupportCoverageTerm, state: ChainState):
    """``(dU/dpi, dU/dP)`` of the support coverage term, dense."""
    size, p, pi = term._size, state.p, state.pi
    weights = pi[term._j] * p[term._j, term._k] * term._t_val
    covered = np.bincount(term._i, weights=weights, minlength=size)
    total = float(pi @ (p * term._t).sum(axis=1))
    weighted = term.alpha * (covered - term._phi * total)
    a_flat = np.bincount(
        term._j * size + term._k,
        weights=weighted[term._i] * term._t_val,
        minlength=size * size,
    )
    q = float(weighted @ term._phi)
    inner = a_flat.reshape(size, size) - q * term._t
    return (
        (p * inner).sum(axis=1),
        np.where(term._support, pi[:, None] * inner, 0.0),
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


def total_derivative(state: ChainState, terms: Iterable) -> np.ndarray:
    """``[D_P U]`` of a sparse state from dense partials (Eq. 10)."""
    grad_pi = grad_z = grad_p = None
    for term in terms:
        pieces = partials(term, state)
        if pieces[0] is not None:
            grad_pi = pieces[0] if grad_pi is None else grad_pi + pieces[0]
        if pieces[1] is not None:
            grad_z = pieces[1] if grad_z is None else grad_z + pieces[1]
        if pieces[2] is not None:
            grad_p = pieces[2] if grad_p is None else grad_p + pieces[2]
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


def projected_gradient(cost, state: ChainState) -> np.ndarray:
    """``Pi [D_P U]`` (Eq. 11), the support-masked dense projection."""
    return project_row_sum_zero(
        total_derivative(state, cost.terms), cost.support
    )


def begin_iteration(cost, state: ChainState, rng, options):
    """One walk iteration's ``(direction, gradient_norm, bound)``, dense.

    The arithmetic of :meth:`~repro.core.perturbed.PerturbedWalk.
    begin_iteration` on whole matrices: the noise matrix is added to
    the dense derivative, the masked projection follows, and the bound
    is taken over every entry.  Draws from ``rng`` as the walk does.
    """
    gradient = total_derivative(state, cost.terms)
    gradient_norm = None
    if options.PERTURBATION == "gaussian":
        gradient_norm = frobenius_norm(gradient)
        if options.sigma > 0.0:
            if options.relative_noise:
                rms = gradient_norm / state.p.size**0.5
                noise_scale = options.sigma * max(rms, 1e-300)
            else:
                noise_scale = options.sigma
            gradient = gradient + rng.normal(
                0.0, noise_scale, size=gradient.shape
            )
    direction = -project_row_sum_zero(gradient, cost.support)
    if options.PERTURBATION == "none":
        gradient_norm = frobenius_norm(direction)
    return direction, gradient_norm, feasible_step_bound(state.p, direction)
