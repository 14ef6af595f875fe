"""Objective terms (the ``CostTerm`` protocol) and their analytic partials.

The cost ``U`` is a sum of terms, each a function of the chain state
``(pi, Z, P)``.  A term contributes its value and the three partials

    ``dU/dpi`` (vector), ``dU/dZ`` (matrix), ``dU/dP`` (matrix),

which the gradient engine combines with the Schweitzer adjoints into the
total derivative ``[D_P U]`` of Eq. (10).  Terms may return ``None`` for a
partial that is identically zero, which the engine skips.

The paper's terms:

* :class:`CoverageDeviationTerm` — ``sum_i (alpha_i / 2) c_i^2`` with
  ``c_i = sum_{j,k} pi_j p_jk (T_{jk,i} - Phi_i T_jk)`` (Eq. 9, first sum).
* :class:`ExposureTerm` — ``sum_i (beta_i / 2) E-bar_i^2`` (Eq. 9, second
  sum, written via the fundamental matrix).
* :class:`EnergyTerm` — ``(w/2) (D - gamma)^2`` with
  ``D = sum_i pi_i sum_{j != i} p_ij d_ij`` (Section VII).
* :class:`EntropyTerm` — ``-w H`` with the chain entropy rate ``H``
  (Section VII), i.e. entropy *maximization* inside a minimization.

Plugin terms beyond the paper (registered in
:data:`repro.core.registry.TERM_REGISTRY`, derivations in
``docs/math.md`` §9):

* :class:`WorstExposureTerm` — softmax-smoothed minimax worst-PoI
  exposure (Pinto et al., multi-agent persistent monitoring).
* :class:`KCoverageShortfallTerm` — squared-hinge shortfall of the
  per-PoI ``k``-coverage probability for a team of independent sensors
  (Iyer & Manjunath, k-coverage limit laws).
* :class:`PeriodicityTerm` — squared-hinge penalty on Kac return times
  exceeding per-PoI visit periods (point sweep coverage).
"""

from __future__ import annotations

import abc
import math
from typing import NamedTuple, Optional

import numpy as np

from repro.core.state import ChainState
from repro.utils.linalg import scatter_flat
from repro.utils.validation import check_square


def _support_legs(support) -> Optional[tuple]:
    """``np.nonzero(support)``: the legs of ``TermBatch.entries``."""
    if support is None:
        return None
    return np.nonzero(np.asarray(support, dtype=bool))


def _entry_legs(term: "CostTerm", legs: Optional[tuple]) -> tuple:
    """``term``'s support legs; raise if it was built without a support."""
    if legs is None:
        raise ValueError(
            f"{type(term).__name__} was built without a support and "
            "cannot read support-value batches"
        )
    return legs


def broadcast_weights(name: str, weights, size: int) -> np.ndarray:
    """Expand a scalar or per-PoI weight spec into a length-``size`` array."""
    array = np.broadcast_to(np.asarray(weights, dtype=float), (size,)).copy()
    if np.any(array < 0) or not np.all(np.isfinite(array)):
        raise ValueError(f"{name} weights must be finite and >= 0")
    return array


class TermBatch(NamedTuple):
    """The shared per-probe arrays a batched cost evaluation computes.

    Handed to :meth:`CostTerm.batch_value` so every term rides the line
    search's stacked evaluation instead of forcing ``k`` scalar state
    builds.  ``pis`` and ``exposures`` rows are only meaningful where
    ``ok`` holds — infeasible probes map to ``+inf`` afterwards, so
    garbage rows are never read; a term that would raise on them (the
    barrier, outside the ``[0, 1]`` box) skips them.

    On the sparse path (``linalg="sparse"``, which needs an adjacency
    support) no dense matrix is built: ``stack`` is ``None`` and ``entries``
    holds each probe's support values in ``np.nonzero(support)`` order;
    ``diag`` is then 0 where ``(i, i)`` is unsupported.
    """

    pis: np.ndarray                  # (k, M) stationary distributions
    stack: Optional[np.ndarray]      # (k, M, M) transition matrices
    diag: np.ndarray                 # (k, M) diagonals p_ii
    exposures: np.ndarray            # (k, M) per-PoI exposure times E-bar_i
    ok: np.ndarray                   # (k,) feasibility mask
    entries: Optional[np.ndarray] = None  # (k, nnz) support values


class SupportPartials(NamedTuple):
    """A term's partials at a sparse state, ``dU/dP`` split at the support.

    ``values`` holds ``dU/dP`` on the support, in the layout's
    ``np.nonzero(support)`` order.  ``remainder`` is a dense ``(M, M)``
    ``dU/dP`` whose off-support entries still count (``None`` when the
    term has no mass off the support); only its off-support entries are
    read, since ``values`` already carries the supported ones.
    """

    grad_pi: Optional[np.ndarray]
    grad_z: Optional[np.ndarray]
    values: Optional[np.ndarray]
    remainder: Optional[np.ndarray]


class CostTerm(abc.ABC):
    """A differentiable summand of the cost function.

    The objective-layer protocol: a term exposes its :meth:`value` and
    the partials ``grad_pi`` / ``grad_z`` / ``grad_p``, from which the
    gradient engine (:mod:`repro.core.gradient`) assembles the analytic
    total derivative through the shared Schweitzer adjoints.  Terms
    meant for use as composable plugins additionally implement
    :meth:`batch_value` so the batched/lockstep line-search paths can
    evaluate them on a whole probe stack at once (see
    ``docs/objectives.md``).
    """

    @abc.abstractmethod
    def value(self, state: ChainState) -> float:
        """Evaluate the term at ``state``."""

    def grad_pi(self, state: ChainState) -> Optional[np.ndarray]:
        """Partial derivative w.r.t. ``pi``; ``None`` means zero."""
        return None

    def grad_z(self, state: ChainState) -> Optional[np.ndarray]:
        """Partial derivative w.r.t. ``Z``; ``None`` means zero."""
        return None

    def grad_p(self, state: ChainState) -> Optional[np.ndarray]:
        """Direct partial w.r.t. ``P`` (holding ``pi``, ``Z`` fixed)."""
        return None

    def support_partials(self, state: ChainState, layout) -> SupportPartials:
        """All three partials for the sparse descent's support assembly.

        ``layout`` is the cost's
        :class:`~repro.markov.sparse.SparseStationaryTemplate`.  The
        base implementation gathers :meth:`grad_p` at the support and
        keeps the dense array as the remainder; terms whose ``dU/dP``
        lives on the support override it to skip the dense array.
        """
        grad_p = self.grad_p(state)
        return SupportPartials(
            self.grad_pi(state),
            self.grad_z(state),
            None if grad_p is None else layout.values(grad_p),
            grad_p,
        )

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        """Per-probe term values for a stacked evaluation, shape ``(k,)``.

        Must agree with :meth:`value` probe for probe.  The base
        implementation raises: a term without a batched form cannot be
        composed into a :class:`~repro.core.cost.CoverageCost`, whose
        optimizers all evaluate through the batched line search.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement batch_value and "
            "cannot be used with the batched/lockstep evaluators"
        )

    @property
    def supports_batch(self) -> bool:
        """Whether this term overrides :meth:`batch_value`."""
        return type(self).batch_value is not CostTerm.batch_value


#: Historical name of the protocol, kept importable for existing code.
ObjectiveTerm = CostTerm


class CoverageDeviationTerm(ObjectiveTerm):
    """Weighted squared deviation of coverage shares from the target.

    Precomputes ``B[i, j, k] = T_{jk,i} - Phi_i T_jk`` once; every
    evaluation is then a couple of einsums.
    """

    def __init__(
        self,
        travel_times: np.ndarray,
        passby: np.ndarray,
        target_shares: np.ndarray,
        alpha,
    ) -> None:
        travel_times = check_square("travel_times", travel_times)
        size = travel_times.shape[0]
        passby = np.asarray(passby, dtype=float)
        if passby.shape != (size, size, size):
            raise ValueError(
                f"passby must have shape {(size, size, size)}, "
                f"got {passby.shape}"
            )
        target_shares = np.asarray(target_shares, dtype=float)
        if target_shares.shape != (size,):
            raise ValueError(
                f"target_shares must have shape ({size},), "
                f"got {target_shares.shape}"
            )
        self.alpha = broadcast_weights("alpha", alpha, size)
        self._t = travel_times
        self._passby = passby
        # B indexed [i, j, k]; passby is indexed [j, k, i].
        self._b = (
            passby.transpose(2, 0, 1)
            - target_shares[:, None, None] * travel_times[None, :, :]
        )

    def deviations(self, state: ChainState) -> np.ndarray:
        """The per-PoI deviations ``c_i = sum_jk pi_j p_jk B[i, j, k]``."""
        weighted = state.pi[:, None] * state.p
        return np.einsum("jk,ijk->i", weighted, self._b)

    def shares(self, state: ChainState) -> np.ndarray:
        """Long-run coverage shares ``C-bar_i`` (Eq. 2)."""
        weighted = state.pi[:, None] * state.p
        total = float(np.sum(weighted * self._t))
        return np.einsum("jk,jki->i", weighted, self._passby) / total

    def value(self, state: ChainState) -> float:
        c = self.deviations(state)
        return float(0.5 * np.sum(self.alpha * c * c))

    def grad_pi(self, state: ChainState) -> np.ndarray:
        c = self.deviations(state)
        # s[i, j] = sum_k p_jk B[i, j, k]; dU/dpi_j = sum_i alpha_i c_i s_ij.
        s = np.einsum("jk,ijk->ij", state.p, self._b)
        return (self.alpha * c) @ s

    def grad_p(self, state: ChainState) -> np.ndarray:
        c = self.deviations(state)
        # dU/dp_jk = pi_j sum_i alpha_i c_i B[i, j, k].
        contracted = np.einsum("i,ijk->jk", self.alpha * c, self._b)
        return state.pi[:, None] * contracted

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        weighted = batch.pis[:, :, None] * batch.stack
        c = np.einsum("kjl,ijl->ki", weighted, self._b)
        return 0.5 * np.einsum("i,ki,ki->k", self.alpha, c, c)


class SupportCoverageTerm(ObjectiveTerm):
    """Coverage deviation over a sparse leg support — ``O(E)`` memory.

    Mathematically identical to :class:`CoverageDeviationTerm` when
    ``P`` vanishes off the support, but it never builds the dense
    ``O(M^3)`` tensor ``B``: the pass-by structure is stored as a flat
    entry list ``(j, k, i, T_{jk,i})`` over supported legs only, and

        ``c_i = sum_entries pi_j p_jk T_{jk,i} - Phi_i sum_jk pi_j p_jk
        T_jk``

    is two weighted bincounts plus one row reduction over the support.
    Gradients reuse the same entry list: with
    ``a_jk = sum_i alpha_i c_i T_{jk,i}`` (a bincount over legs) and
    ``q = sum_i alpha_i c_i Phi_i``,

        ``dU/dpi_j = sum_k p_jk (a_jk - q T_jk)``,
        ``dU/dp_jk = pi_j (a_jk - q T_jk)``  (supported legs only).

    Every sum over legs runs on support values (``np.nonzero(support)``
    order).  Row sums that feed a trajectory are a ``bincount`` over
    the support values on a sparse state; on a dense state (a city grid
    below the sparse threshold) they reduce a zero-padded ``(M, M)``
    matrix (:func:`~repro.utils.linalg.scatter_flat`), so they equal
    the dense matrix's sums bit for bit.
    """

    def __init__(
        self,
        travel_times: np.ndarray,
        entries,
        target_shares: np.ndarray,
        alpha,
        support: np.ndarray,
    ) -> None:
        travel_times = check_square("travel_times", travel_times)
        size = travel_times.shape[0]
        j_idx, k_idx, i_idx, t_val = entries
        j_idx = np.asarray(j_idx, dtype=np.intp)
        k_idx = np.asarray(k_idx, dtype=np.intp)
        i_idx = np.asarray(i_idx, dtype=np.intp)
        t_val = np.asarray(t_val, dtype=float)
        if not (j_idx.shape == k_idx.shape == i_idx.shape == t_val.shape):
            raise ValueError("entry arrays must share one shape")
        target_shares = np.asarray(target_shares, dtype=float)
        if target_shares.shape != (size,):
            raise ValueError(
                f"target_shares must have shape ({size},), "
                f"got {target_shares.shape}"
            )
        support = np.asarray(support, dtype=bool)
        if support.shape != (size, size):
            raise ValueError(
                f"support must have shape {(size, size)}, "
                f"got {support.shape}"
            )
        self.alpha = broadcast_weights("alpha", alpha, size)
        self._t = travel_times
        self._phi = target_shares
        self._support = support
        self._j = j_idx
        self._k = k_idx
        self._i = i_idx
        self._t_val = t_val
        self._size = size
        # Gathered support legs (entries off the support contribute
        # nothing): the support-value layout of TermBatch.entries.
        self._sup_j, self._sup_k = np.nonzero(support)
        self._sup_t = travel_times[self._sup_j, self._sup_k]
        self._sup_flat = self._sup_j * size + self._sup_k
        # Entry -> position of its leg among the support values; every
        # entry must sit on the support.
        flat_leg = j_idx * size + k_idx
        self._entry_pos = np.searchsorted(self._sup_flat, flat_leg)
        if not np.array_equal(
            self._sup_flat.take(self._entry_pos, mode="clip"), flat_leg
        ):
            raise ValueError("pass-by entries must lie on the support")

    def _values(self, p: np.ndarray) -> np.ndarray:
        """``p``'s support values."""
        return p.reshape(-1)[self._sup_flat]

    def _padded(self, values: np.ndarray) -> np.ndarray:
        """The zero-padded ``(M, M)`` matrix of support ``values``."""
        return scatter_flat(self._sup_flat, values, self._size)

    def _row_sums(self, values: np.ndarray, state: ChainState):
        """Row sums of support ``values``: a bincount in support order
        on a sparse state, the zero-padded matrix's on a dense one."""
        if state.template is not None:
            return np.bincount(
                self._sup_j, weights=values, minlength=self._size
            )
        return self._padded(values).sum(axis=1)

    def _deviations(self, state: ChainState, p_s: np.ndarray):
        """``c_i`` at ``state``, whose support values are ``p_s``."""
        pi = state.pi
        weights = pi[self._j] * p_s[self._entry_pos] * self._t_val
        covered = np.bincount(
            self._i, weights=weights, minlength=self._size
        )
        total = float(pi @ self._row_sums(p_s * self._sup_t, state))
        return covered - self._phi * total

    def deviations(self, state: ChainState) -> np.ndarray:
        """The per-PoI deviations ``c_i`` (same contract as the dense term)."""
        return self._deviations(state, self._values(state.p))

    def shares(self, state: ChainState) -> np.ndarray:
        """Long-run coverage shares ``C-bar_i`` (Eq. 2), one bincount."""
        weighted = state.pi[self._sup_j] * self._values(state.p)
        total = float(np.sum(self._padded(weighted * self._sup_t)))
        covered = np.bincount(
            self._i,
            weights=weighted[self._entry_pos] * self._t_val,
            minlength=self._size,
        )
        return covered / total

    def value(self, state: ChainState) -> float:
        c = self.deviations(state)
        return float(0.5 * np.sum(self.alpha * c * c))

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        pis, entries = batch.pis, batch.entries
        if entries is None:
            entries = batch.stack[:, self._sup_j, self._sup_k]
        # sum_jl pi_j p_jl T_jl over supported legs only: the dense
        # einsum is an O(n M^2) scan that dominates at large M, while
        # off-support entries of a valid stack are identically zero.
        totals = (pis[:, self._sup_j] * entries * self._sup_t).sum(axis=1)
        values = np.empty(entries.shape[0])
        for n in range(entries.shape[0]):
            weights = (
                pis[n, self._j] * entries[n, self._entry_pos] * self._t_val
            )
            covered = np.bincount(
                self._i, weights=weights, minlength=self._size
            )
            c = covered - self._phi * totals[n]
            values[n] = 0.5 * np.sum(self.alpha * c * c)
        return values

    def _partials(self, state: ChainState):
        """``(dU/dpi, dU/dP values)``: the leg inner ``a_jk - q T_jk``
        on the support, one ``a`` bin per supported leg."""
        p_s = self._values(state.p)
        weighted = self.alpha * self._deviations(state, p_s)
        a = np.bincount(
            self._entry_pos,
            weights=weighted[self._i] * self._t_val,
            minlength=self._sup_flat.size,
        )
        inner = a - float(weighted @ self._phi) * self._sup_t
        grad_pi = self._row_sums(p_s * inner, state)
        return grad_pi, state.pi[self._sup_j] * inner

    def grad_pi(self, state: ChainState) -> np.ndarray:
        return self._partials(state)[0]

    def grad_p(self, state: ChainState) -> np.ndarray:
        return self._padded(self._partials(state)[1])

    def support_partials(self, state: ChainState, layout) -> SupportPartials:
        grad_pi, values = self._partials(state)
        return SupportPartials(grad_pi, None, values, None)


class ExposureTerm(ObjectiveTerm):
    """Weighted squared per-PoI average exposure times.

    Uses the Eq. (9) representation through the fundamental matrix:
    ``E-bar_i = n_i / (pi_i (1 - p_ii))`` with
    ``n_i = sum_{j != i} p_ij (z_ii - z_ji)``.
    """

    def __init__(self, beta, size: int) -> None:
        self.beta = broadcast_weights("beta", beta, size)

    @staticmethod
    def _pieces(state: ChainState):
        """Return ``(e, n, staying)`` with the stability guard applied.

        Sparse states never touch ``Z``: summing Eq. 8 against the
        row-sum identity ``Z 1 = 1`` collapses
        ``n_i = sum_{j != i} p_ij (z_ii - z_ji)`` to exactly
        ``1 - pi_i``, so ``E-bar_i = (1 - pi_i) / (pi_i (1 - p_ii))``.
        """
        staying = np.diag(state.p)
        if np.any(staying >= 1.0 - 1e-13):
            raise ValueError(
                "some p_ii is numerically 1; exposure times are undefined"
            )
        if state.linalg == "sparse":
            n = 1.0 - state.pi
            return n / (state.pi * (1.0 - staying)), n, staying
        z_diag = np.diag(state.z)
        diffs = z_diag[None, :] - state.z  # (j, i): z_ii - z_ji
        weights = state.p * diffs.T  # (i, j): p_ij (z_ii - z_ji)
        np.fill_diagonal(weights, 0.0)
        n = weights.sum(axis=1)
        e = n / (state.pi * (1.0 - staying))
        return e, n, staying

    def exposures(self, state: ChainState) -> np.ndarray:
        """The per-PoI exposure times ``E-bar_i``."""
        return self._pieces(state)[0]

    def value(self, state: ChainState) -> float:
        e = self.exposures(state)
        return float(0.5 * np.sum(self.beta * e * e))

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        e = batch.exposures
        return 0.5 * np.einsum("i,ki,ki->k", self.beta, e, e)

    def _sparse_partials(self, state: ChainState):
        """``(dU/dpi, diagonal of dU/dP)`` of the sparse split, which
        :meth:`support_partials` assembles; ``grad_*`` are the dense
        split.

        Closed form: the whole pi-dependence of E-bar_i is explicit,
        dE_i/dpi_i = -1 / (pi_i^2 (1 - p_ii)); the Z-chain that the
        dense split routes through grad_z is already absorbed here, so
        grad_z is identically zero.  The two splits give the same
        *projected* total derivative.  dE_i/dp_ii = E_i / (1 - p_ii);
        all other entries of P reach E-bar only through pi, which the
        adjoint handles.
        """
        e, _, staying = self._pieces(state)
        return (
            -self.beta * e / (state.pi**2 * (1.0 - staying)),
            self.beta * e * e / (1.0 - staying),
        )

    def support_partials(self, state: ChainState, layout) -> SupportPartials:
        return _exposure_support_partials(self, state, layout)

    def grad_pi(self, state: ChainState) -> np.ndarray:
        e, _, _ = self._pieces(state)
        # de_i/dpi_i = -e_i / pi_i  (pi enters only through the denominator).
        return -self.beta * e * e / state.pi

    def grad_z(self, state: ChainState) -> np.ndarray:
        e, _, staying = self._pieces(state)
        denom = state.pi * (1.0 - staying)
        scale = self.beta * e  # beta_i e_i, chain through e_i
        grad = np.zeros_like(state.z)
        # dn_i/dz_ji = -p_ij for j != i  ->  grad[j, i] -= scale_i p_ij / denom_i
        grad -= (scale / denom)[None, :] * state.p.T
        np.fill_diagonal(grad, 0.0)
        # dn_i/dz_ii = sum_{j != i} p_ij = 1 - p_ii  ->  grad[i, i].
        grad[np.diag_indices_from(grad)] = scale * (1.0 - staying) / denom
        return grad

    def grad_p(self, state: ChainState) -> np.ndarray:
        e, _, staying = self._pieces(state)
        denom = state.pi * (1.0 - staying)
        scale = self.beta * e
        z_diag = np.diag(state.z)
        diffs = (z_diag[None, :] - state.z).T  # (i, j): z_ii - z_ji
        grad = (scale / denom)[:, None] * diffs
        # de_i/dp_ii = e_i / (1 - p_ii).
        grad[np.diag_indices_from(grad)] = scale * e / (1.0 - staying)
        return grad


def _exposure_support_partials(term, state: ChainState, layout):
    """Support partials of an exposure term's sparse split, whose
    ``dU/dP`` lives on the diagonal (a remainder off a support without
    every self-loop)."""
    grad_pi, diagonal = term._sparse_partials(state)
    values = np.zeros(layout.nnz)
    values[layout.diag_slots] = diagonal[layout.diag_rows]
    remainder = None
    if layout.diag_rows.size < layout.size:
        remainder = np.diag(diagonal)
    return SupportPartials(grad_pi, None, values, remainder)


class EnergyTerm(ObjectiveTerm):
    """Travel-energy control ``(w/2) (D - gamma)^2`` (Section VII).

    ``gamma = 0`` reduces to penalizing the mean per-transition travel
    distance ``D`` itself; a positive ``gamma`` *prescribes* an average
    movement level, which Section VII notes can be advantageous.
    """

    def __init__(self, distances: np.ndarray, weight: float,
                 target: float = 0.0, support=None) -> None:
        self.distances = check_square("distances", distances)
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        self.weight = float(weight)
        self.target = float(target)
        self._legs = _support_legs(support)

    def mean_travel(self, state: ChainState) -> float:
        """``D = sum_i pi_i sum_{j != i} p_ij d_ij`` (d_ii = 0)."""
        return float(state.pi @ (state.p * self.distances).sum(axis=1))

    def value(self, state: ChainState) -> float:
        gap = self.mean_travel(state) - self.target
        return float(0.5 * self.weight * gap * gap)

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        if batch.stack is None:
            j, k = _entry_legs(self, self._legs)
            travel = (
                batch.pis[:, j] * batch.entries * self.distances[j, k]
            ).sum(axis=1)
        else:
            travel = np.einsum(
                "ki,kij,ij->k", batch.pis, batch.stack, self.distances
            )
        gap = travel - self.target
        return 0.5 * self.weight * gap * gap

    def grad_pi(self, state: ChainState) -> np.ndarray:
        gap = self.mean_travel(state) - self.target
        return self.weight * gap * (state.p * self.distances).sum(axis=1)

    def grad_p(self, state: ChainState) -> np.ndarray:
        gap = self.mean_travel(state) - self.target
        return self.weight * gap * state.pi[:, None] * self.distances


class EntropyTerm(ObjectiveTerm):
    """Entropy regularization ``-w H`` (Section VII).

    Adding this term to a minimized cost maximizes the schedule's entropy
    rate, making the sensor's location harder for an adversary to predict.
    """

    def __init__(self, weight: float, support=None) -> None:
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        self.weight = float(weight)
        self._legs = _support_legs(support)

    @staticmethod
    def _row_plogp(p: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p > 0.0, p * np.log(p), 0.0)

    def entropy(self, state: ChainState) -> float:
        """Entropy rate ``H`` at ``state`` in nats."""
        return float(-state.pi @ self._row_plogp(state.p).sum(axis=1))

    def value(self, state: ChainState) -> float:
        return -self.weight * self.entropy(state)

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        if batch.stack is None:
            j, _ = _entry_legs(self, self._legs)
            weighted = batch.pis[:, j] * self._row_plogp(batch.entries)
            return -self.weight * -weighted.sum(axis=1)
        plogp = self._row_plogp(batch.stack).sum(axis=2)
        return -self.weight * (
            -np.einsum("ki,ki->k", batch.pis, plogp)
        )

    def grad_pi(self, state: ChainState) -> np.ndarray:
        # dH/dpi_i = -sum_j p_ij ln p_ij; value = -w H.
        return self.weight * self._row_plogp(state.p).sum(axis=1)

    def grad_p(self, state: ChainState) -> np.ndarray:
        # dH/dp_ij = -pi_i (ln p_ij + 1); value = -w H.
        with np.errstate(divide="ignore"):
            logs = np.where(state.p > 0.0, np.log(state.p), 0.0)
        return self.weight * state.pi[:, None] * (logs + 1.0)


def check_term_weight(weight: float) -> float:
    """Validate a plugin term's scalar weight (finite, ``>= 0``)."""
    try:
        weight = float(weight)
    except (TypeError, ValueError):
        raise ValueError(
            f"term weight must be a finite scalar >= 0, got {weight!r}"
        ) from None
    if not math.isfinite(weight) or weight < 0:
        raise ValueError(
            f"term weight must be finite and >= 0, got {weight}"
        )
    return weight


class WorstExposureTerm(CostTerm):
    """Softmax-smoothed minimax worst-PoI exposure (docs/math.md §9a).

    ``U = (w / tau) ln sum_i exp(tau E-bar_i)`` — a smooth upper bound
    on ``w max_i E-bar_i``, within ``w ln(M)/tau`` of it, so minimizing
    it drives down the *worst* PoI's exposure rather than the paper's
    sum-of-squares aggregate (the persistent-monitoring minimax
    objective of Pinto et al.).  The gradient chains the softmax
    weights ``s_i`` through the exposure partials of
    :class:`ExposureTerm`: ``dU/dE-bar_i = w s_i``.
    """

    def __init__(self, weight: float, tau: float = 8.0) -> None:
        self.weight = check_term_weight(weight)
        self.tau = float(tau)
        if not math.isfinite(self.tau) or self.tau <= 0:
            raise ValueError(
                f"tau must be finite and > 0, got {self.tau}"
            )

    @staticmethod
    def _smooth_max(exposures: np.ndarray, tau: float) -> np.ndarray:
        """Row-wise ``(1/tau) logsumexp(tau e)``, shift-stabilized."""
        e = np.atleast_2d(exposures)
        shift = e.max(axis=1, keepdims=True)
        out = shift[:, 0] + np.log(
            np.exp(tau * (e - shift)).sum(axis=1)
        ) / tau
        return out

    def _scale(self, e: np.ndarray) -> np.ndarray:
        """``dU/dE-bar_i = w softmax(tau e)_i``."""
        shifted = np.exp(self.tau * (e - e.max()))
        return self.weight * shifted / shifted.sum()

    def value(self, state: ChainState) -> float:
        e = ExposureTerm._pieces(state)[0]
        return float(self.weight * self._smooth_max(e, self.tau)[0])

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        return self.weight * self._smooth_max(batch.exposures, self.tau)

    def _sparse_partials(self, state: ChainState):
        """``(dU/dpi, diagonal of dU/dP)`` of the sparse split.

        Closed form E_i = (1 - pi_i) / (pi_i (1 - p_ii)):
        dE_i/dpi_i = -1 / (pi_i^2 (1 - p_ii)) and
        dE_i/dp_ii = E_i / (1 - p_ii); the Z-chain is absorbed exactly
        as in ExposureTerm's sparse split.
        """
        e, _, staying = ExposureTerm._pieces(state)
        scale = self._scale(e)
        return (
            -scale / (state.pi**2 * (1.0 - staying)),
            scale * e / (1.0 - staying),
        )

    def support_partials(self, state: ChainState, layout) -> SupportPartials:
        return _exposure_support_partials(self, state, layout)

    def grad_pi(self, state: ChainState) -> np.ndarray:
        e, _, _ = ExposureTerm._pieces(state)
        # Dense split: dE_i/dpi_i = -E_i / pi_i.
        return -self._scale(e) * e / state.pi

    def grad_z(self, state: ChainState) -> np.ndarray:
        e, _, staying = ExposureTerm._pieces(state)
        scale = self._scale(e)
        denom = state.pi * (1.0 - staying)
        grad = np.zeros_like(state.z)
        # dn_i/dz_ji = -p_ij (j != i); dn_i/dz_ii = 1 - p_ii.
        grad -= (scale / denom)[None, :] * state.p.T
        np.fill_diagonal(grad, 0.0)
        grad[np.diag_indices_from(grad)] = scale * (1.0 - staying) / denom
        return grad

    def grad_p(self, state: ChainState) -> np.ndarray:
        e, _, staying = ExposureTerm._pieces(state)
        scale = self._scale(e)
        denom = state.pi * (1.0 - staying)
        z_diag = np.diag(state.z)
        diffs = (z_diag[None, :] - state.z).T  # (i, j): z_ii - z_ji
        grad = (scale / denom)[:, None] * diffs
        # dE_i/dp_ii = E_i / (1 - p_ii).
        grad[np.diag_indices_from(grad)] = scale * e / (1.0 - staying)
        return grad


class KCoverageShortfallTerm(CostTerm):
    """Squared-hinge ``k``-coverage shortfall for teams (math.md §9b).

    A homogeneous team of ``team`` sensors running the schedule
    independently occupies PoI ``i`` as ``Binomial(team, pi_i)``, so the
    chance of at-least-``k`` simultaneous coverage is the binomial tail
    ``q_i = P[Bin(team, pi_i) >= k]`` (the limit-law regime of Iyer &
    Manjunath).  The term penalizes falling short of ``threshold``:

        ``U = (w/2) sum_i max(0, threshold - q_i)^2``

    A pure ``pi``-term: its whole gradient flows through the stationary
    adjoint.
    """

    def __init__(self, weight: float, team: int = 4, k: int = 2,
                 threshold: float = 0.5) -> None:
        self.weight = check_term_weight(weight)
        self.team = int(team)
        self.k = int(k)
        self.threshold = float(threshold)
        if self.team < 1:
            raise ValueError(f"team must be >= 1, got {self.team}")
        if not 1 <= self.k <= self.team:
            raise ValueError(
                f"k must lie in [1, team={self.team}], got {self.k}"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"threshold must lie in (0, 1), got {self.threshold}"
            )
        # Tail coefficients C(team, m) for m = k..team, and the exact
        # derivative prefactor q'(p) = team C(team-1, k-1) p^(k-1)
        # (1-p)^(team-k).
        self._orders = np.arange(self.k, self.team + 1)
        self._coefs = np.array(
            [math.comb(self.team, int(m)) for m in self._orders],
            dtype=float,
        )
        self._dcoef = self.team * math.comb(self.team - 1, self.k - 1)

    def tail(self, pi: np.ndarray) -> np.ndarray:
        """``q(pi) = P[Bin(team, pi) >= k]`` elementwise."""
        p = np.asarray(pi, dtype=float)[..., None]
        terms = (
            self._coefs
            * p ** self._orders
            * (1.0 - p) ** (self.team - self._orders)
        )
        return terms.sum(axis=-1)

    def _shortfall(self, pi: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, self.threshold - self.tail(pi))

    def value(self, state: ChainState) -> float:
        h = self._shortfall(state.pi)
        return float(0.5 * self.weight * np.sum(h * h))

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        h = self._shortfall(batch.pis)
        return 0.5 * self.weight * np.sum(h * h, axis=1)

    def grad_pi(self, state: ChainState) -> np.ndarray:
        pi = state.pi
        h = self._shortfall(pi)
        dq = (
            self._dcoef
            * pi ** (self.k - 1)
            * (1.0 - pi) ** (self.team - self.k)
        )
        return -self.weight * h * dq


class PeriodicityTerm(CostTerm):
    """Squared-hinge visit-periodicity penalty (docs/math.md §9c).

    Kac's formula makes the mean inter-visit time of PoI ``i`` exactly
    ``1 / pi_i`` transitions; point-sweep coverage asks every PoI to be
    revisited within a period ``t_i``.  The term penalizes exceedance:

        ``U = (w/2) sum_i max(0, 1/pi_i - t_i)^2``

    Like the k-coverage term it depends on ``pi`` alone, so its exact
    gradient is one stationary-adjoint application.
    """

    def __init__(self, weight: float, periods) -> None:
        self.weight = check_term_weight(weight)
        self.periods = np.asarray(periods, dtype=float)
        if self.periods.ndim != 1:
            raise ValueError(
                f"periods must be a 1-D per-PoI array, got shape "
                f"{self.periods.shape}"
            )
        if np.any(self.periods <= 0) or not np.all(
            np.isfinite(self.periods)
        ):
            raise ValueError("periods must be finite and > 0")

    def excess(self, pi: np.ndarray) -> np.ndarray:
        """``max(0, 1/pi_i - t_i)`` — the per-PoI period violations."""
        return np.maximum(0.0, 1.0 / pi - self.periods)

    def value(self, state: ChainState) -> float:
        g = self.excess(state.pi)
        return float(0.5 * self.weight * np.sum(g * g))

    def batch_value(self, batch: TermBatch) -> np.ndarray:
        g = np.maximum(0.0, 1.0 / batch.pis - self.periods)
        return 0.5 * self.weight * np.sum(g * g, axis=1)

    def grad_pi(self, state: ChainState) -> np.ndarray:
        g = self.excess(state.pi)
        return -self.weight * g / state.pi**2
