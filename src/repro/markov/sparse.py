"""Sparse solvers for the chain core ``(I - P + W)`` at large ``M``.

The dense path factors the core with a dense LU at ``O(M^3)``; for
topologies whose feasible transitions form a sparse graph (city grids,
ring-of-grids — see :mod:`repro.topology.random_gen`) that cost is the
scaling bottleneck.  The core itself is *dense* even when ``P`` is
sparse, because ``W = 1 pi^T`` has rank one but full support.  The trick
is the bordered splitting

    ``A = I - P + 1 pi^T = B + 1 (pi - e_n)^T``  with
    ``B = I - P + 1 e_n^T``,

where ``e_n`` is the last standard basis vector.  ``B`` differs from the
sparse ``I - P`` only in its last column, so it admits a sparse LU
(:func:`scipy.sparse.linalg.splu`), and ``B`` is nonsingular whenever
``P`` is ergodic: ``Bx = 0`` forces ``(I - P)x = -x_n 1``, and
multiplying by ``pi`` gives ``x_n = 0``, hence ``x`` in the null space
of ``I - P``, i.e. ``x = c 1`` with ``c = x_n = 0``.  Solves against the
full core then follow from one rank-one Sherman-Morrison correction:

    ``A^{-1} b = y - h (v^T y) / (1 + v^T h)``,
    ``y = B^{-1} b``, ``h = B^{-1} 1``, ``v = pi - e_n``.

:class:`SparseCoreSolver` packages this behind the same ``solve()`` /
``solve_transpose()`` contract as the dense
:class:`~repro.markov.fundamental.CoreFactorization`, so stationary
distributions, first-passage times (Eq. 8), and the Schweitzer adjoints
route through it untouched.

``B`` also yields the stationary distribution: ``B^T pi = pi - P^T pi +
e_n (1^T pi) = e_n`` exactly when ``pi`` is stationary and sums to one,
so ``pi = B^{-T} e_n``.  On a support the LU of ``B`` is therefore the
only factorization a chain state needs
(:class:`SparseStationaryTemplate`): one ``splu`` gives both ``pi`` and
the core solves.  Line-search probes along a ray solve
``B(P')^T x = e_n`` by iterative refinement against the LU of the ray's
base state, starting from the base's ``pi``, so a probe's ``pi`` depends
only on that base and the probe itself.

Every chain state and probe of a sparse cost goes through the template:
``linalg="sparse"`` needs an adjacency mask.  Two template-free
primitives stay at the markov level, for :mod:`repro.markov.incremental`
and the markov tests: :func:`sparse_stationary` solves the stationary
system through a sparse LU of the bordered ``(I - P^T;`` last row
ones``)`` matrix with the exact sanitize semantics of
:func:`~repro.markov.stationary.stationary_via_linear_solve`, and
:class:`SparseCoreSolver` without a template assembles ``B`` from every
nonzero of a dense ``P``.

scipy is imported inside the functions that factor or assemble sparse
systems, not with the module: :mod:`repro.core.cost` imports this module
for every cost, dense ones included, and a dense run never loads scipy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils import perf
from repro.utils.linalg import scatter_flat
from repro.utils.validation import check_square

#: Column ordering for every ``splu`` in this module.  The feasible
#: graphs behind the sparse path (city grids, ring-of-grids) are nearly
#: symmetric, where minimum-degree on ``A^T + A`` consistently beats the
#: COLAMD default by ~2x in factorization time.
_PERMC_SPEC = "MMD_AT_PLUS_A"

#: SuperLU options paired with the near-symmetric ordering: symmetric
#: mode with the relaxed diagonal-pivot threshold its documentation
#: recommends.  Worth another ~1.5-2x in factorization time; observed
#: solution perturbation on the benchmark families is ~1e-12, two
#: orders below the tightest equivalence tolerance asserted anywhere.
_SPLU_OPTIONS = {"SymmetricMode": True, "DiagPivotThresh": 0.1}


def _factorize(system):
    """The module's one ``splu`` call site, counted as one sparse LU."""
    from scipy.sparse.linalg import splu

    factors = splu(
        system, permc_spec=_PERMC_SPEC, options=dict(_SPLU_OPTIONS)
    )
    perf.count("sparse_factorizations")
    return factors


def _stationary_from(factors, count: int) -> np.ndarray:
    """Sanitized ``pi = B^{-T} e_n`` from the LU of ``B``."""
    from repro.markov.stationary import _sanitize

    rhs = np.zeros(count)
    rhs[-1] = 1.0
    return _sanitize(factors.solve(rhs, trans="T"))


def sparse_stationary(matrix: np.ndarray) -> np.ndarray:
    """Stationary distribution via a sparse LU of the bordered system.

    Same linear system as
    :func:`~repro.markov.stationary.stationary_via_linear_solve` —
    ``(I - P)^T pi = 0`` with the last equation replaced by
    ``sum(pi) = 1`` — factored sparsely, and sanitized identically
    (clip tiny negative round-off, renormalize).
    """
    from scipy import sparse

    from repro.markov.stationary import _sanitize

    matrix = check_square("matrix", matrix)
    count = matrix.shape[0]
    # Assemble (I - P)^T with the last row replaced by ones directly in
    # COO form (duplicate coordinates sum, merging -p_ii with the +1
    # identity diagonal) — format conversions through lil dominate the
    # factorization itself at benchmark sizes.
    j, k = np.nonzero(matrix)
    keep = k != count - 1
    j, k = j[keep], k[keep]
    rows = np.concatenate(
        [k, np.arange(count - 1), np.full(count, count - 1)]
    )
    cols = np.concatenate(
        [j, np.arange(count - 1), np.arange(count)]
    )
    data = np.concatenate(
        [-matrix[j, k], np.ones(count - 1), np.ones(count)]
    )
    system = sparse.coo_matrix(
        (data, (rows, cols)), shape=(count, count)
    ).tocsc()
    rhs = np.zeros(count)
    rhs[-1] = 1.0
    factors = _factorize(system)
    return _sanitize(factors.solve(rhs))


class SparseStationaryTemplate:
    """Pre-indexed bordered core ``B = I - P + 1 e_n^T`` for a fixed
    support pattern.

    Assembling a sparse system from scratch costs an ``O(M^2)`` dense
    scan plus format conversions that dominate the factorization itself
    once that is cheap.  Every matrix a sparse descent factors shares
    one support pattern, so this template computes ``B``'s CSC sparsity
    structure and the data permutation once and then refills only the
    numeric values per matrix:

    * off-diagonal support entries ``(j, k)`` with ``k < M - 1``
      contribute ``B[j, k] = -p_jk``,
    * diagonal entries ``B[i, i] = 1 - p_ii`` for ``i < M - 1``,
    * the last column is ``B[j, M - 1] = 1 - p_j,M-1``, plus one on the
      diagonal.

    The template reads *support values*: a matrix's entries on the
    support in ``np.nonzero(support)`` order (:meth:`values` gathers
    them from a dense matrix).  :meth:`factor` is the one sparse LU a
    chain state owns (:class:`SparseCoreSolver` solves against it),
    ``solve(matrix)`` returns the sanitized stationary distribution
    ``B^{-T} e_n``, and :meth:`solve_batch` refines line-search probes
    against a ray's base factorization.

    It is also the sparse descent's layout: ``rows``/``cols``/``flat``
    locate each value, and :meth:`project` is Eq. 11 on values.
    """

    def __init__(self, support: np.ndarray) -> None:
        from scipy import sparse

        support = np.asarray(support, dtype=bool)
        if support.ndim != 2 or support.shape[0] != support.shape[1]:
            raise ValueError(
                f"support must be square, got {support.shape}"
            )
        count = support.shape[0]
        last = count - 1
        j, k = np.nonzero(support)
        off = (j != k) & (k != last)
        diag = np.arange(last)
        rows = np.concatenate([j[off], diag, np.arange(count)])
        cols = np.concatenate([k[off], diag, np.full(count, last)])
        nnz = rows.size
        # Recover the COO -> sorted-CSC data permutation by pushing the
        # entry ranks through the conversion (no duplicate coordinates
        # by construction, so nothing is summed).
        coo = sparse.coo_matrix(
            (np.arange(1.0, nnz + 1.0), (rows, cols)),
            shape=(count, count),
        )
        csc = coo.tocsc()
        self.size = count
        self.nnz = j.size
        self.rows, self.cols = j, k
        self.flat = j * count + k
        self.row_counts = np.bincount(j, minlength=count)
        self._off_slots = np.flatnonzero(off)
        self.diag_slots = np.flatnonzero(j == k)
        self.diag_rows = j[self.diag_slots]
        self._last_slots = np.flatnonzero(k == last)
        self._last_rows = j[self._last_slots]
        self._order = np.asarray(csc.data, dtype=np.int64) - 1
        self._indices = csc.indices
        self._indptr = csc.indptr
        self._rhs = np.zeros(count)
        self._rhs[-1] = 1.0

    def values(self, matrices: np.ndarray) -> np.ndarray:
        """Support values of a ``(M, M)`` matrix or ``(k, M, M)`` stack."""
        matrices = np.asarray(matrices, dtype=float)
        return matrices.reshape(*matrices.shape[:-2], -1)[..., self.flat]

    def dense(self, values: np.ndarray) -> np.ndarray:
        """The ``(M, M)`` matrix of ``(nnz,)`` values, zero off support."""
        return scatter_flat(self.flat, values, self.size)

    def diagonals(self, values: np.ndarray) -> np.ndarray:
        """``p_ii`` of ``(..., nnz)`` values; 0 where unsupported."""
        out = np.zeros(values.shape[:-1] + (self.size,))
        out[..., self.diag_rows] = values[..., self.diag_slots]
        return out

    def project(self, values: np.ndarray) -> np.ndarray:
        """Eq. 11 on ``(nnz,)`` values: subtract each row's support mean.

        :func:`~repro.utils.linalg.project_row_sum_zero` ``(P, support)``
        on the support, with each row sum a ``bincount`` over the values
        in support order: ``O(nnz + M)``, and the same for any thread
        count.
        """
        if not self.row_counts.all():
            raise ValueError("support has an all-empty row")
        sums = np.bincount(self.rows, weights=values, minlength=self.size)
        means = sums / self.row_counts
        return values - means[self.rows]

    def _bordered(self, values: np.ndarray):
        """A fresh CSC ``B`` for ``values`` on the fixed pattern.

        Nothing is written to the template, so threads sharing it (a
        cost shared by a thread-backend multi-start) never race.
        """
        from scipy import sparse

        count = self.size
        offdiag = self._off_slots.size
        column = np.zeros(count)
        column[self._last_rows] = values[self._last_slots]
        data = np.empty(self._order.size)
        data[:offdiag] = -values[self._off_slots]
        data[offdiag: offdiag + count - 1] = (
            1.0 - self.diagonals(values)[:-1]
        )
        data[offdiag + count - 1:] = 1.0 - column
        data[-1] += 1.0
        return sparse.csc_matrix(
            (data[self._order], self._indices, self._indptr),
            shape=(count, count),
        )

    def factor(self, values: np.ndarray):
        """The sparse LU of ``B`` for ``(nnz,)`` support values."""
        return _factorize(self._bordered(values))

    def solve(self, matrix: np.ndarray) -> np.ndarray:
        """Stationary distribution of ``matrix`` (support must match)."""
        matrix = check_square("matrix", matrix)
        if matrix.shape[0] != self.size:
            raise ValueError(
                f"matrix size {matrix.shape[0]} != template size "
                f"{self.size}"
            )
        return _stationary_from(self.factor(self.values(matrix)), self.size)

    #: Iterative-refinement controls for :meth:`solve_batch`: accept a
    #: refined solution once its residual inf-norm clears the tolerance
    #: (with that residual's correction applied), else fall back to a
    #: fresh factorization after the iteration cap.
    IR_TOL = 1e-14
    IR_MAX = 12

    def _refine(self, factors, start: np.ndarray, values: np.ndarray):
        """``B(P')^T x = e_n`` refined from ``start`` against ``factors``.

        The residual ``e_n - (x - P'^T x + e_n sum(x))`` is read off the
        support values in ``O(nnz)``.  Every sweep applies its residual's
        correction, the one that clears :attr:`IR_TOL` included, so an
        accepted solution is one correction past the certified one.
        Returns it sanitized, or ``None`` when the residual misses
        :attr:`IR_TOL` within :attr:`IR_MAX` sweeps.
        """
        from repro.markov.stationary import _sanitize

        x = start.copy()
        for _ in range(self.IR_MAX):
            image = x - np.bincount(
                self.cols, weights=values * x[self.rows],
                minlength=self.size,
            )
            image[-1] += x.sum()
            residual = self._rhs - image
            gap = np.abs(residual).max()
            if not np.isfinite(gap):
                return None
            x += factors.solve(residual, trans="T")
            if gap < self.IR_TOL:
                try:
                    return _sanitize(x)
                except ValueError:
                    return None
        return None

    def solve_batch(self, probes: np.ndarray, indices, reference) -> dict:
        """Stationary distributions for selected rows of ``probes``.

        ``probes`` holds support values, shape ``(k, nnz)`` (gather a
        dense stack with :meth:`values`).  ``reference`` is the
        :class:`SparseCoreSolver` of the probes' ray base: each probe
        solves ``B(P')^T x = e_n`` by iterative refinement against the
        reference's LU, starting from its ``pi`` — an ``O(nnz)``
        residual plus triangular solves per sweep.  A probe whose
        refinement misses :attr:`IR_TOL` within :attr:`IR_MAX` sweeps
        gets its own factorization, used for that probe only; singular
        probes are skipped.  With ``reference=None`` (a bare stack) the
        first probe that factors is the reference for the rest.

        Returns ``{index: pi}`` for the probes that solved.  Given a
        reference, a probe's ``pi`` depends only on the reference and
        the probe: not on the other probes in the call, nor on their
        order.
        """
        results = {}
        factors = start = None
        if reference is not None:
            factors, start = reference._lu, reference.pi
        for index in indices:
            values = np.ascontiguousarray(probes[index])
            if factors is not None:
                pi = self._refine(factors, start, values)
                if pi is not None:
                    results[index] = pi
                    continue
            try:
                own = self.factor(values)
                pi = _stationary_from(own, self.size)
            except (ValueError, RuntimeError):
                continue  # singular probe: skip
            results[index] = pi
            if factors is None:
                factors, start = own, pi
        return results


class SparseCoreSolver:
    """Sparse factorization of ``(I - P + W)`` for an ergodic chain.

    Presents the dense :class:`~repro.markov.fundamental.
    CoreFactorization` contract (:meth:`solve`, :meth:`solve_transpose`)
    and :meth:`full_inverse` for sparse states' :meth:`~repro.core.state.
    ChainState.dense_z`, backed by one ``splu`` of the sparse bordered
    matrix ``B = I - P + 1 e_n^T`` plus the Sherman-Morrison correction
    described in the module docstring.  A given ``pi`` is trusted as-is
    (callers own its accuracy), mirroring :func:`~repro.markov.
    fundamental.factor_core`; without one, ``pi`` is read from the same
    LU as the sanitized ``B^{-T} e_n``, so one factorization serves both.

    With a :class:`SparseStationaryTemplate` whose support holds all of
    ``matrix``'s mass, ``B`` is filled from ``P``'s support values on the
    template's fixed pattern instead of scanning all ``M^2`` entries.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        pi: Optional[np.ndarray] = None,
        template: Optional[SparseStationaryTemplate] = None,
    ) -> None:
        if template is None:
            from scipy import sparse

            matrix = check_square("matrix", matrix)
            count = matrix.shape[0]
            # B = I - P + 1 e_n^T assembled directly in COO form
            # (duplicate coordinates sum: -P entries, the identity
            # diagonal, and the all-ones last column merge where they
            # overlap).
            j, k = np.nonzero(matrix)
            rows = np.concatenate([j, np.arange(count), np.arange(count)])
            cols = np.concatenate(
                [k, np.arange(count), np.full(count, count - 1)]
            )
            data = np.concatenate(
                [-matrix[j, k], np.ones(count), np.ones(count)]
            )
            self._lu = _factorize(sparse.coo_matrix(
                (data, (rows, cols)), shape=(count, count)
            ).tocsc())
        else:
            count = template.size
            if np.shape(matrix) != (count, count):
                raise ValueError(
                    f"matrix must have shape ({count}, {count}), got "
                    f"{np.shape(matrix)}"
                )
            self._lu = template.factor(template.values(matrix))
        if pi is None:
            pi = _stationary_from(self._lu, count)
        pi = np.asarray(pi, dtype=float)
        if pi.shape != (count,):
            raise ValueError(
                f"pi must have shape ({count},), got {pi.shape}"
            )
        self.size = count
        self.pi = pi
        self._v = pi.copy()
        self._v[-1] -= 1.0  # v = pi - e_n
        self._h = self._lu.solve(np.ones(count))  # h = B^{-1} 1
        self._g = self._lu.solve(self._v, trans="T")  # g = B^{-T} v
        self._denom = 1.0 + float(self._v @ self._h)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - P + W) x = rhs`` (vector or stacked columns)."""
        rhs = np.asarray(rhs, dtype=float)
        y = self._lu.solve(rhs)
        correction = (self._v @ y) / self._denom
        return y - np.multiply.outer(self._h, correction) if y.ndim > 1 \
            else y - self._h * correction

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - P + W)^T x = rhs`` (vector or stacked columns)."""
        rhs = np.asarray(rhs, dtype=float)
        y = self._lu.solve(rhs, trans="T")
        correction = y.sum(axis=0) / self._denom
        return y - np.multiply.outer(self._g, correction) if y.ndim > 1 \
            else y - self._g * correction

    def full_inverse(self) -> np.ndarray:
        """The dense fundamental matrix ``Z`` — ``O(M^2)`` memory.

        Provided for the small-``M`` reference paths (first-passage
        matrices, cross-validation tests); the large-``M`` pipeline
        routes everything through targeted :meth:`solve` calls instead.
        """
        return np.ascontiguousarray(self.solve(np.eye(self.size)))


def sparse_fundamental_and_stationary(matrix: np.ndarray):
    """Return ``(solver, pi)`` computed consistently in one pass.

    The sparse analogue of :func:`~repro.markov.fundamental.
    fundamental_and_stationary`, except the fundamental matrix is
    returned *implicitly* as a :class:`SparseCoreSolver` rather than
    materialized.
    """
    pi = sparse_stationary(matrix)
    return SparseCoreSolver(matrix, pi), pi


def changed_rows(
    base: np.ndarray, updated: np.ndarray, atol: float = 0.0
) -> np.ndarray:
    """Indices of rows where ``updated`` differs from ``base``.

    The incremental update machinery
    (:mod:`repro.markov.incremental`) treats a descent step as a
    row-wise perturbation; this helper finds its support.
    """
    base = np.asarray(base, dtype=float)
    updated = np.asarray(updated, dtype=float)
    if base.shape != updated.shape:
        raise ValueError(
            f"shape mismatch: {base.shape} vs {updated.shape}"
        )
    deltas = np.abs(updated - base).max(axis=1)
    return np.nonzero(deltas > atol)[0]
