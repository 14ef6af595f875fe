"""Per-iterate chain state: ``(P, pi, Z, R)`` computed once and shared.

Every steepest-descent iteration evaluates the cost and its gradient at the
same transition matrix; both need the stationary distribution and the
fundamental matrix.  :class:`ChainState` computes them exactly once per
matrix (step 5 of the paper's computational algorithm, Section V).

Two hot-path optimizations live here:

* a dense build performs exactly two decompositions, the stationary
  solve and the ``inv`` that yields ``Z``; an LU of the core is made
  only if a caller asks for solves against it
  (:meth:`ChainState.solve_core`), on the first such call;
* :meth:`ChainState.from_parts` assembles a state from an already-computed
  ``(pi, Z)`` — the batched line search hands its winning probe back to
  the optimizer this way, so an accepted step costs no new factorization.

A state built on a support layout (a
:class:`~repro.markov.sparse.SparseStationaryTemplate`) is sparse: it
never materializes ``Z``, its ``z`` field stays ``None`` and every
``Z @ v`` / ``v^T Z`` product routes through targeted solves against a
sparse factorization of the core (:mod:`repro.markov.sparse`).  Each
sparse state owns that factorization, the LU of the bordered core
``B = I - P + 1 e_n^T``, so its values depend only on its matrix and
its ``pi``: a state built from a matrix factors ``B`` once and reads
``pi`` from the same LU; a state assembled from parts factors it lazily
on its first core solve.  Small-``M`` reference paths that genuinely
need the full matrix call :meth:`ChainState.dense_z`, which
materializes and caches it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.markov.fundamental import factor_core, fundamental_matrix
from repro.markov.passage import first_passage_times
from repro.markov.stationary import stationary_via_linear_solve
from repro.utils import perf
from repro.utils.linalg import is_row_stochastic
from repro.utils.validation import check_square


@dataclass(frozen=True)
class ChainState:
    """Immutable snapshot of a transition matrix and derived matrices.

    Attributes
    ----------
    p:
        Transition matrix.
    pi:
        Stationary distribution.
    z:
        Fundamental matrix ``(I - P + W)^{-1}``, or ``None`` for sparse
        states (use :meth:`dense_z` if the full matrix is truly needed).
    template:
        The support layout of a sparse state, whose matrix vanishes off
        an adjacency support (a
        :class:`~repro.markov.sparse.SparseStationaryTemplate`), else
        ``None``.  Its core factorization reads ``P`` at the support
        instead of scanning every entry.
    """

    p: np.ndarray
    pi: np.ndarray
    z: Optional[np.ndarray] = None
    template: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    _r_cache: list = field(default_factory=list, repr=False, compare=False)
    _z2_cache: list = field(default_factory=list, repr=False, compare=False)
    _lu_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.z is None and self.template is None:
            raise ValueError(
                "a state needs an explicit z or a sparse template"
            )

    @property
    def linalg(self) -> str:
        """``"sparse"`` for a state on a support template, else
        ``"dense"`` (the reference path)."""
        return "dense" if self.template is None else "sparse"

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        check: bool = True,
        template=None,
    ):
        """Build the state for ``matrix``.

        ``check=True`` validates stochasticity (cheap); ergodicity is
        implied by a successful stationary solve with positive entries,
        which is verified unconditionally because the downstream exposure
        formulas divide by ``pi``.

        With a ``template`` the state is sparse and leaves ``z``
        unmaterialized: it factors ``B = I - P + 1 e_n^T`` once and
        reads ``pi = B^{-T} e_n`` from that LU, which its core solves
        then reuse — one sparse factorization per state.
        """
        matrix = check_square("matrix", matrix)
        if check and not is_row_stochastic(matrix):
            raise ValueError(
                "matrix must be row-stochastic; row sums are "
                f"{np.asarray(matrix).sum(axis=1)}"
            )
        if template is None:
            solver, pi = None, stationary_via_linear_solve(matrix)
        else:
            from repro.markov.sparse import SparseCoreSolver

            solver = SparseCoreSolver(matrix, template=template)
            pi = solver.pi
        if np.any(pi <= 0):
            raise ValueError(
                "stationary distribution has non-positive entries "
                f"(min {pi.min():.3g}); the chain is not ergodic"
            )
        if solver is None:
            z = fundamental_matrix(matrix, pi)
            # One stationary solve plus one core inverse: the only dense
            # decompositions a state build performs.
            perf.count("factorizations", 2)
            state = cls(p=matrix, pi=pi, z=z)
        else:
            state = cls(p=matrix, pi=pi, template=template)
            state._lu_cache.append(solver)
        perf.count("state_builds")
        return state

    @classmethod
    def from_parts(
        cls,
        p: np.ndarray,
        pi: np.ndarray,
        z: Optional[np.ndarray] = None,
        template=None,
    ):
        """Assemble a state from already-computed ``(pi, Z)``.

        Used to hand the line search's winning probe back to the
        optimizer without refactorizing.  ``pi`` must already be
        normalized (the batched evaluator sanitizes it exactly as the
        scalar solver does); renormalizing here could drift a ulp away
        from the scalar path and perturb otherwise bit-identical
        trajectories.  ``p``/``pi``/``z`` are trusted (callers own
        their consistency).

        Sparse probes carry no ``z``; pass their ``template`` and the
        state factors its core lazily on first :meth:`solve_core`.
        """
        p = check_square("p", p)
        pi = np.asarray(pi, dtype=float)
        if z is None and template is None:
            raise ValueError("z may be omitted only with a sparse template")
        if z is not None:
            z = check_square("z", z)
            if z.shape != p.shape:
                raise ValueError(
                    f"inconsistent shapes: p {p.shape}, z {z.shape}"
                )
        if pi.shape != (p.shape[0],):
            raise ValueError(
                f"inconsistent shapes: p {p.shape}, pi {pi.shape}"
            )
        if np.any(pi <= 0):
            raise ValueError(
                "stationary distribution has non-positive entries "
                f"(min {pi.min():.3g}); the chain is not ergodic"
            )
        perf.count("states_reused")
        # Fresh owned copies, not views into the caller's batch stack:
        # BLAS/einsum kernels pick SIMD paths by memory alignment, and a
        # misaligned view can yield ulp-different gradients than the
        # bitwise-equal freshly allocated arrays of ``from_matrix``.
        return cls(
            p=np.array(p, dtype=float),
            pi=np.array(pi, dtype=float),
            z=None if z is None else np.array(z, dtype=float),
            template=template,
        )

    @classmethod
    def _from_probe(cls, p: np.ndarray, pi: np.ndarray, template):
        """A sparse line-search probe's state, without revalidation.

        The batched evaluator has already checked the probe's values
        for feasibility and its ``pi`` for finite positive entries, and
        ``p`` is a matrix freshly scattered from those values, so the
        ``M^2`` finiteness scan and the copy of ``p`` that
        :meth:`from_parts` makes are skipped.
        """
        perf.count("states_reused")
        return cls(p=p, pi=np.array(pi, dtype=float), template=template)

    @property
    def size(self) -> int:
        """Number of states."""
        return self.p.shape[0]

    def dense_z(self) -> np.ndarray:
        """The full fundamental matrix, materialized and cached on demand.

        Dense states return their ``z`` as-is.  Sparse states pay one
        ``O(M^2)``-memory materialization through the core solver —
        small-``M`` reference paths only; the large-``M`` pipeline
        should route through :meth:`solve_core` /
        :meth:`solve_core_transpose` instead.
        """
        if self.z is None:
            object.__setattr__(
                self, "z", self.core_solver().full_inverse()
            )
        return self.z

    @property
    def r(self) -> np.ndarray:
        """First-passage-time matrix (transitions), computed on demand."""
        if not self._r_cache:
            self._r_cache.append(
                first_passage_times(self.p, self.dense_z(), self.pi)
            )
        return self._r_cache[0]

    @property
    def z2(self) -> np.ndarray:
        """``Z @ Z``, cached — the Schweitzer adjoints reuse it."""
        if not self._z2_cache:
            z = self.dense_z()
            self._z2_cache.append(z @ z)
        return self._z2_cache[0]

    def core_solver(self):
        """The state's core solver, factored lazily on first use.

        A sparse state's solver owns the LU of ``B``; a line search
        along a ray from this state refines its probes against it.
        """
        if not self._lu_cache:
            if self.template is not None:
                from repro.markov.sparse import SparseCoreSolver

                self._lu_cache.append(
                    SparseCoreSolver(self.p, self.pi, self.template)
                )
            else:
                perf.count("factorizations")
                self._lu_cache.append(factor_core(self.p, self.pi))
        return self._lu_cache[0]

    def solve_core(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - P + W) x = rhs`` reusing the state's factors.

        The core is factored on the first call (counted as one
        factorization, or one sparse factorization) and the factors are
        reused after that; a sparse state built from a matrix on a
        support already holds them from its stationary solve.
        """
        return self.core_solver().solve(rhs)

    def solve_core_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - P + W)^T x = rhs`` reusing the state's factors."""
        return self.core_solver().solve_transpose(rhs)

    def exposure_times(self) -> np.ndarray:
        """Per-PoI average exposure times ``E-bar_i`` (Eq. 3).

        ``E-bar_i = sum_{j != i} p_ij R_ji / (1 - p_ii)`` in transition
        units, computed via the fundamental matrix so no explicit ``R`` is
        required: ``R_ji = (z_ii - z_ji) / pi_i`` for ``j != i``.

        Sparse states use the closed form instead: summing Eq. 8 against
        ``Z``'s row-sum identity ``Z 1 = 1`` gives
        ``sum_{j != i} p_ij pi_i R_ji = 1 - pi_i`` exactly, so
        ``E-bar_i = (1 - pi_i) / (pi_i (1 - p_ii))`` with no fundamental
        matrix at all.
        """
        p, pi = self.p, self.pi
        staying = np.diag(p)
        if np.any(staying >= 1.0 - 1e-13):
            raise ValueError(
                "some p_ii is numerically 1; the sensor never leaves that "
                "PoI and its exposure time is undefined (division by "
                "1 - p_ii)"
            )
        if self.template is not None:
            return (1.0 - pi) / (pi * (1.0 - staying))
        z = self.z
        z_diag = np.diag(z)
        # weights[i, j] = p_ij * (z_ii - z_ji) for j != i, 0 on diagonal.
        passage_to_i = (z_diag[None, :] - z) / pi[None, :]  # R_ji over (j, i)
        weights = p * passage_to_i.T  # (i, j): p_ij * R_ji
        np.fill_diagonal(weights, 0.0)
        return weights.sum(axis=1) / (1.0 - staying)
