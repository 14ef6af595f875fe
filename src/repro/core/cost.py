"""The assembled cost function ``U_eps`` and the paper's report metrics.

:class:`CoverageCost` binds a :class:`~repro.topology.model.Topology` to a
:class:`CostWeights` configuration and exposes:

* ``value(P)`` / ``evaluate(P)`` — the penalized cost ``U_eps`` (Eq. 9) and
  its decomposition,
* ``gradient(P)`` — the total derivative ``[D_P U]`` (Eq. 10),
* ``descent_direction(P)`` — ``-Pi [D_P U]`` (Eq. 11),
* the reporting metrics of Section VI: coverage shares ``C-bar_i``
  (Eq. 2), per-PoI exposures ``E-bar_i`` (Eq. 3), the deviation ``Delta C``
  (Eq. 12), and the aggregate exposure ``E-bar`` (Eq. 13).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.gradient import (
    projected_gradient,
    support_derivative,
    total_derivative,
)
from repro.core.linesearch import feasible_step_bound
from repro.core.penalty import BarrierPenalty
from repro.core.registry import (
    TERM_REGISTRY,
    CostSum,
    build_term,
    normalize_extra_terms,
)
from repro.core.state import ChainState
from repro.core.terms import ObjectiveTerm, TermBatch
from repro.markov.sparse import SparseStationaryTemplate
from repro.topology.model import Topology
from repro.utils import perf
from repro.utils.linalg import frobenius_norm, project_row_sum_zero

#: Valid ``linalg`` selections.
LINALG_MODES = ("auto", "dense", "sparse")
#: ``linalg="auto"`` switches to the sparse path at this many PoIs
#: (and only for topologies carrying an adjacency mask).
SPARSE_AUTO_THRESHOLD = 64
#: ``(largest M, rounds)``: trisection rounds one dense line-search
#: call evaluates, by chain size (see :func:`speculative_rounds`).
SPECULATIVE_ROUNDS = ((16, 3), (36, 2))


def resolve_linalg(linalg: str, topology: Topology) -> str:
    """Resolve a requested ``linalg`` mode to ``"dense"`` or ``"sparse"``.

    The sparse path holds every matrix as its values on the topology's
    adjacency mask, so ``"sparse"`` on a topology without one raises
    ``ValueError``; an explicit ``"sparse"`` is honored on any topology
    with an adjacency mask, whatever its size.  ``"auto"`` picks sparse
    only when it actually pays off *and* keeps the paper-scale
    reference bit-exact: the topology must carry an adjacency mask and
    the instance must be at least :data:`SPARSE_AUTO_THRESHOLD` PoIs.
    Resolving loads nothing: scipy is imported by the sparse solvers on
    their first use.
    """
    if linalg not in LINALG_MODES:
        raise ValueError(
            f"linalg must be one of {LINALG_MODES}, got {linalg!r}"
        )
    if linalg == "sparse" and topology.adjacency is None:
        raise ValueError(
            "linalg='sparse' needs a topology with an adjacency mask; "
            "this topology has none (use 'dense' or 'auto')"
        )
    if linalg != "auto":
        return linalg
    if (
        topology.adjacency is not None
        and topology.size >= SPARSE_AUTO_THRESHOLD
    ):
        return "sparse"
    return "dense"


def speculative_rounds(size: int, linalg: str) -> int:
    """Trisection rounds a ray's one ``batch_evaluate`` call serves.

    A small dense chain's call costs mostly its fixed overhead, so a
    ray evaluates the probes of the next few rounds at once (every
    bracket they can reach, see
    :meth:`~repro.core.linesearch.TrisectionState.speculative_steps`)
    and its search uses the ones its rounds reach.  The depth is a
    fixed function of the chain, so it changes no result: winners,
    steps and trajectories are those of one round per call.  Larger
    dense chains pay per probe, and a sparse probe costs its own
    refine, so they evaluate one round per call.
    """
    if linalg == "dense":
        for largest, rounds in SPECULATIVE_ROUNDS:
            if size <= largest:
                return rounds
    return 1


@dataclass(frozen=True)
class CostWeights:
    """Weight configuration for the multi-objective cost.

    ``alpha`` and ``beta`` may be scalars (the paper's Section VI setting,
    all PoIs equal) or per-PoI arrays.  ``epsilon`` is the barrier band
    width of Eq. (9).  ``energy_weight``/``energy_target`` and
    ``entropy_weight`` enable the Section VII extension terms.
    """

    alpha: object = 1.0
    beta: object = 1.0
    epsilon: float = 1e-4
    energy_weight: float = 0.0
    energy_target: float = 0.0
    entropy_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0 or self.epsilon >= 0.5:
            raise ValueError(
                f"epsilon must lie in (0, 0.5), got {self.epsilon}"
            )
        if self.energy_weight < 0 or self.entropy_weight < 0:
            raise ValueError("extension weights must be >= 0")


@dataclass(frozen=True)
class CostBreakdown:
    """Decomposition of the cost at one transition matrix.

    ``u`` is the un-penalized Eq. (14) cost; ``u_eps`` adds the barrier;
    ``delta_c`` and ``e_bar`` are the Section VI metrics (Eqs. 12-13).
    """

    u: float
    u_eps: float
    coverage_value: float
    exposure_value: float
    penalty_value: float
    energy_value: float
    entropy_value: float
    delta_c: float
    e_bar: float
    coverage_shares: np.ndarray
    exposure_times: np.ndarray
    #: ``(name, value)`` pairs for the cost's plugin terms, in
    #: composition order; empty for the paper's bare objective.
    extra_values: tuple = ()


class CoverageCost:
    """Cost function of the coverage-scheduling problem on a topology.

    ``linalg`` selects the linear-algebra backend: ``"dense"`` (the
    bit-exact reference), ``"sparse"`` (large-``M``, on any topology
    with an adjacency mask: matrices are held as their support values
    and each chain state owns one sparse core factorization, no
    materialized ``Z``), or ``"auto"`` (the default — see
    :func:`resolve_linalg`; paper-scale dense topologies always resolve
    dense, so default results are unchanged).  ``"sparse"`` on a
    topology without an adjacency mask raises ``ValueError``.

    Independently of ``linalg``, a topology carrying an adjacency mask
    gets the support-aware term set: the compact ``O(E)`` coverage term
    instead of the ``O(M^3)`` tensor, a barrier restricted to feasible
    transitions, and support-preserving gradient projections.

    The objective itself is a :class:`~repro.core.registry.CostSum`
    composition: the paper's terms are built through their
    :data:`~repro.core.registry.TERM_REGISTRY` factories (support-aware
    coverage, exposure, the barrier, plus the Section VII extensions
    when their weights are positive), and ``extra_terms`` appends any
    further registered terms — specified as anything
    :func:`~repro.core.registry.normalize_extra_terms` accepts — to the
    composition.  Extra terms must implement
    :meth:`~repro.core.terms.CostTerm.batch_value`; the batched and
    lockstep line-search paths evaluate them on whole probe stacks, so
    a scalar-only term is rejected at construction rather than failing
    mid-run.
    """

    def __init__(
        self,
        topology: Topology,
        weights: CostWeights,
        linalg: str = "auto",
        extra_terms=(),
    ) -> None:
        self.topology = topology
        self.weights = weights
        self.linalg = linalg
        self.resolved_linalg = resolve_linalg(linalg, topology)
        self.extra_terms = normalize_extra_terms(extra_terms)
        self._support = topology.adjacency  # None for dense topologies
        self._coverage = TERM_REGISTRY["coverage"].factory(
            topology, weights.alpha
        )
        self._exposure = TERM_REGISTRY["exposure"].factory(
            topology, weights.beta
        )
        self._penalty = BarrierPenalty(
            epsilon=weights.epsilon, support=self._support
        )
        entries = [
            ("coverage", 1.0, self._coverage),
            ("exposure", 1.0, self._exposure),
            ("penalty", 1.0, self._penalty),
        ]
        if weights.energy_weight > 0:
            entries.append(("energy", 1.0, TERM_REGISTRY["energy"].factory(
                topology, weights.energy_weight,
                target=weights.energy_target,
            )))
        if weights.entropy_weight > 0:
            entries.append(("entropy", 1.0, TERM_REGISTRY["entropy"].factory(
                topology, weights.entropy_weight
            )))
        for name, weight, params in self.extra_terms:
            term = build_term(name, topology, weight, **dict(params))
            if not term.supports_batch:
                raise ValueError(
                    f"term {name!r} ({type(term).__name__}) does not "
                    "implement batch_value; the batched/lockstep "
                    "evaluators cannot compose it into a CoverageCost"
                )
            entries.append((name, 1.0, term))
        self._sum = CostSum(entries)
        self._stationary_template = None  # lazily-built, sparse mode

    # ------------------------------------------------------------------ #
    # Term plumbing
    # ------------------------------------------------------------------ #

    @property
    def term_sum(self) -> CostSum:
        """The objective as a :class:`~repro.core.registry.CostSum`."""
        return self._sum

    @property
    def terms(self) -> List[ObjectiveTerm]:
        """All active terms, barrier included (the ``U_eps`` objective).

        Composition order: coverage, exposure, barrier, the enabled
        Section VII extensions, then any ``extra_terms`` plugins.  The
        gradient engine iterates this list, so plugin partials flow
        through the same Schweitzer adjoints as the paper's terms.
        """
        return self._sum.members()

    @property
    def size(self) -> int:
        """Number of PoIs."""
        return self.topology.size

    @property
    def support(self) -> Optional[np.ndarray]:
        """Feasible-transition mask, or ``None`` for dense topologies."""
        return self._support

    def with_linalg(self, linalg: Optional[str]) -> "CoverageCost":
        """This cost with another ``linalg`` selection (same topology).

        ``None`` or the current selection return ``self`` unchanged, so
        facade-level threading never perturbs an already-configured
        cost.
        """
        if linalg is None or linalg == self.linalg:
            return self
        return CoverageCost(
            self.topology, self.weights, linalg=linalg,
            extra_terms=self.extra_terms,
        )

    def with_extra_terms(self, terms) -> "CoverageCost":
        """This cost with another plugin-term composition.

        ``None`` (or the current composition) returns ``self``
        unchanged — the facade's ``terms=`` threading never perturbs an
        already-configured cost; anything else replaces the extra-term
        list wholesale (normalized via
        :func:`~repro.core.registry.normalize_extra_terms`).
        """
        if terms is None:
            return self
        normalized = normalize_extra_terms(terms)
        if normalized == self.extra_terms:
            return self
        return CoverageCost(
            self.topology, self.weights, linalg=self.linalg,
            extra_terms=normalized,
        )

    def project(self, matrix: np.ndarray) -> np.ndarray:
        """Eq. 11 projection, support-restricted when a mask is present."""
        return project_row_sum_zero(matrix, self._support)

    def _probe_template(self):
        """The sparse path's stationary template (built on first use),
        or ``None`` on the dense path.

        The template owns the support-value layout: ``np.nonzero``
        order, with its gather, scatter and diagonal helpers.
        """
        if self.resolved_linalg != "sparse":
            return None
        if self._stationary_template is None:
            self._stationary_template = SparseStationaryTemplate(
                self._support
            )
        return self._stationary_template

    def build_state(self, matrix: np.ndarray, check: bool = True) -> ChainState:
        """Build the :class:`ChainState` for ``matrix`` under this cost.

        Both paths are :meth:`ChainState.from_matrix`; the sparse one
        solves ``pi`` through the cost's stationary template, and the
        state owns its core factorization.  With a support mask,
        probability on infeasible legs is rejected up front — it would
        silently bypass the support-restricted barrier and coverage
        terms otherwise.
        """
        matrix = np.asarray(matrix, dtype=float)
        if check and self._support is not None and np.any(
            matrix[~self._support] != 0.0
        ):
            raise ValueError(
                "matrix places probability on legs outside the "
                "topology's adjacency support"
            )
        return ChainState.from_matrix(
            matrix, check=check, template=self._probe_template()
        )

    def state_from_parts(self, p: np.ndarray, pi: np.ndarray,
                         z: Optional[np.ndarray]) -> ChainState:
        """Assemble a probe's state from batch-evaluated parts.

        Dense parts carry their ``Z``; sparse parts (``z=None``) make a
        sparse state, which factors its own core on first use.
        """
        if z is not None:
            return ChainState.from_parts(p, pi, z)
        return ChainState.from_parts(p, pi, template=self._probe_template())

    def _probe_state(self, p: np.ndarray, pi: np.ndarray,
                     z: Optional[np.ndarray]) -> ChainState:
        """The state of a probe a ray hands back: :meth:`state_from_parts`,
        minus the revalidation a sparse probe has already passed."""
        if z is not None:
            return ChainState.from_parts(p, pi, z)
        return ChainState._from_probe(p, pi, self._probe_template())

    def state(self, matrix: np.ndarray) -> ChainState:
        """Build the :class:`ChainState` for ``matrix``."""
        return self.build_state(matrix)

    def __getstate__(self):
        """Drop the stationary template for pickling: worker processes
        rebuild it lazily, which is cheap.

        When a :func:`repro.exec.shm.transport_session` is active (the
        shm transport), the support mask held directly by the cost is
        additionally swapped for a shared-memory handle; plain pickling
        is unchanged.
        """
        state = self.__dict__.copy()
        state["_stationary_template"] = None
        from repro.exec.shm import active_session, share_array

        if active_session() is not None:
            state["_support"] = share_array(state["_support"])
        return state

    def __setstate__(self, state):
        from repro.exec.shm import resolve_shared

        self.__dict__.update(
            {key: resolve_shared(value) for key, value in state.items()}
        )

    # ------------------------------------------------------------------ #
    # Values
    # ------------------------------------------------------------------ #

    def value(self, matrix_or_state) -> float:
        """The penalized cost ``U_eps`` (Eq. 9) plus any plugin terms."""
        state = self._as_state(matrix_or_state)
        return self._sum.value(state)

    def evaluate(self, matrix_or_state) -> CostBreakdown:
        """Full decomposition of the cost at a matrix.

        Each term's value is read from the :class:`CostSum` members by
        label; ``u_eps`` is the same left fold :meth:`value` computes,
        and ``u`` that fold without the barrier.
        """
        state = self._as_state(matrix_or_state)
        parts = self._sum.term_values(state)
        split = len(parts) - len(self.extra_terms)
        paper = dict(parts[:split])
        exposures = self._exposure.exposures(state)
        deviations = self._coverage.deviations(state)
        return CostBreakdown(
            u=float(sum(
                value for label, value in parts if label != "penalty"
            )),
            u_eps=float(sum(value for _, value in parts)),
            coverage_value=float(paper["coverage"]),
            exposure_value=float(paper["exposure"]),
            penalty_value=float(paper["penalty"]),
            energy_value=float(paper.get("energy", 0.0)),
            entropy_value=float(paper.get("entropy", 0.0)),
            delta_c=float(np.sum(deviations**2)),
            e_bar=float(np.sqrt(np.sum(exposures**2))),
            coverage_shares=self._coverage.shares(state),
            exposure_times=exposures,
            extra_values=tuple(
                (name, float(value)) for name, value in parts[split:]
            ),
        )

    # ------------------------------------------------------------------ #
    # Gradients
    # ------------------------------------------------------------------ #

    def ray_layout(self):
        """How rays hold matrices: the stationary template's support
        values on the sparse path, else a :class:`DenseLayout` of whole
        matrices.

        Either one gathers (``values``), scatters (``dense``) and
        projects (``project``, Eq. 11) in that layout, so the descent
        runs one iteration for both paths.
        """
        template = self._probe_template()
        return DenseLayout(self._support) if template is None else template

    def gradient(self, matrix_or_state) -> np.ndarray:
        """The total derivative ``[D_P U_eps]`` (Eq. 10).

        On the sparse path it is assembled on the support values
        (:func:`~repro.core.gradient.support_derivative`) and scattered
        into the whole matrix.
        """
        state = self._as_state(matrix_or_state)
        template = self._probe_template()
        if template is None:
            return total_derivative(state, self.terms)
        return support_derivative(state, self.terms, template).dense(
            template
        )

    def gradient_values(self, matrix_or_state, norm: bool = False):
        """``[D_P U_eps]`` as the :meth:`ray_layout` holds matrices.

        Returns ``(values, norm)``: the derivative in the layout (its
        support values on the sparse path, the whole matrix on the dense
        path), and, when ``norm``, the Frobenius norm of the whole
        derivative (else ``None``).  The sparse path takes that norm
        without building the ``(M, M)`` derivative
        (:meth:`~repro.core.gradient.SupportDerivative.norm`).
        """
        state = self._as_state(matrix_or_state)
        template = self._probe_template()
        if template is None:
            gradient = total_derivative(state, self.terms)
            return gradient, frobenius_norm(gradient) if norm else None
        derivative = support_derivative(state, self.terms, template)
        return (
            derivative.values,
            derivative.norm(template) if norm else None,
        )

    def projected_gradient(self, matrix_or_state) -> np.ndarray:
        """``Pi [D_P U_eps]`` (Eq. 11), support-restricted when masked."""
        state = self._as_state(matrix_or_state)
        template = self._probe_template()
        if template is None:
            return projected_gradient(state, self.terms, self._support)
        values = support_derivative(state, self.terms, template).values
        return template.dense(template.project(values))

    def descent_direction(self, matrix_or_state) -> np.ndarray:
        """``V = -Pi [D_P U_eps]`` — step 3 of the computational algorithm."""
        return -self.projected_gradient(matrix_or_state)

    # ------------------------------------------------------------------ #
    # Paper metrics (Section VI)
    # ------------------------------------------------------------------ #

    def coverage_shares(self, matrix_or_state) -> np.ndarray:
        """Long-run coverage shares ``C-bar_i`` (Eq. 2)."""
        return self._coverage.shares(self._as_state(matrix_or_state))

    def exposure_times(self, matrix_or_state) -> np.ndarray:
        """Per-PoI average exposure times ``E-bar_i`` (Eq. 3)."""
        state = self._as_state(matrix_or_state)
        return self._exposure.exposures(state)

    def delta_c(self, matrix_or_state) -> float:
        """Coverage-time deviation ``Delta C`` (Eq. 12)."""
        state = self._as_state(matrix_or_state)
        return float(np.sum(self._coverage.deviations(state) ** 2))

    def e_bar(self, matrix_or_state) -> float:
        """Aggregate exposure ``E-bar = sqrt(sum_i E-bar_i^2)`` (Eq. 13)."""
        state = self._as_state(matrix_or_state)
        exposures = self._exposure.exposures(state)
        return float(np.sqrt(np.sum(exposures**2)))

    # ------------------------------------------------------------------ #
    # Batched evaluation (line-search hot path)
    # ------------------------------------------------------------------ #

    def batch_values(self, stack: np.ndarray) -> np.ndarray:
        """``U_eps`` for a stack of matrices, shape ``(k, M, M) -> (k,)``.

        One vectorized pass using numpy's stacked linear algebra; the
        line search evaluates all its probes in a single call, which is
        several times faster than ``k`` scalar evaluations.  Matrices
        yielding non-ergodic/singular systems map to ``+inf`` rather than
        raising — an infeasible probe is merely unattractive.

        The objective is the same :class:`CostSum` :meth:`value` folds,
        evaluated through each member's ``batch_value``.  Accepts the
        same inputs as :meth:`batch_evaluate`, ``(k, nnz)`` support
        values included.
        """
        return self.batch_evaluate(stack)[0]

    def batch_evaluate(self, stack: np.ndarray, reference=None):
        """Batched evaluation that also returns the derived matrices.

        Returns ``(values, pis, zs, ok)``: the ``U_eps`` values of
        :meth:`batch_values` plus the per-matrix stationary
        distributions, fundamental matrices, and the feasibility mask.
        ``pis[i]``/``zs[i]`` are only meaningful where ``ok[i]`` — the
        line search uses them to hand its winning probe's state back to
        the optimizer without refactorizing (see :class:`RayBatch`).

        Three steps: one feasibility mask, one chain step for the
        backend, then the :class:`CostSum` on a :class:`TermBatch`.  On
        the sparse path ``zs`` is ``None``: no fundamental matrix is
        ever materialized — stationary distributions come from sparse
        solves against the template and exposures from their closed
        form, so a whole line-search stage costs ``O(k (nnz + M^2))``
        instead of ``O(k M^3)``.

        The sparse path never builds a dense matrix either: ``stack``
        may be a ``(k, nnz)`` array of support values in
        ``np.nonzero(support)`` order (what :class:`RayBatch` probes
        are), and a dense ``(k, M, M)`` stack is gathered to those
        values, its off-support mass making a probe infeasible.

        ``reference`` is a sparse :class:`ChainState` near the probes
        (a ray's base state): each probe's ``pi`` is refined against
        that state's core LU, so it depends only on the reference and
        the probe.  Without one, a support-value stack refines against
        its first probe's LU.  The dense path ignores it.
        """
        stack = np.asarray(stack, dtype=float)
        size = self.size
        template = self._probe_template()
        sparse = template is not None
        if sparse and stack.shape[1:] == (template.nnz,):
            entries, dense = stack, None
        elif stack.ndim == 3 and stack.shape[1:] == (size, size):
            dense = stack
            entries = template.values(stack) if sparse else None
        else:
            expected = f"(k, {size}, {size})"
            if sparse:
                expected += f" or (k, {template.nnz})"
            raise ValueError(
                f"stack must have shape {expected}, got {stack.shape}"
            )
        if sparse:
            # Column-major, the layout a gather ``stack[:, rows, cols]``
            # yields: numpy then sums each probe's values in support
            # order, so both inputs (and the terms' row sums) agree bit
            # for bit whatever layout the caller's array had.
            entries = np.asfortranarray(entries)
        k = len(stack)
        values = np.full(k, np.inf)
        if k == 0:
            zs = None if sparse else np.zeros((0, size, size))
            return values, np.zeros((0, size)), zs, np.zeros(0, dtype=bool)
        perf.count("batch_calls")
        perf.count("batch_matrices", k)
        if sparse:
            diag = template.diagonals(entries)
        else:
            diag = np.einsum("kii->ki", dense)
        with np.errstate(all="ignore"):
            ok = self._batch_feasible(dense, entries, diag)
            if sparse:
                pis, zs, exposures, solved = self._sparse_chain(
                    template, entries, diag, ok, reference
                )
            else:
                pis, zs, exposures, solved = self._dense_chain(dense, diag)
            ok &= solved
            if not ok.any():
                return values, pis, zs, ok
            total = self._sum.batch_value(TermBatch(
                pis=pis, stack=None if sparse else dense, diag=diag,
                exposures=exposures, ok=ok, entries=entries,
            ))
        values[ok] = total[ok]
        values[~np.isfinite(values)] = np.inf
        return values, pis, zs, ok

    def _batch_feasible(self, dense, entries, diag):
        """The ``[0, 1]`` box, ``p_ii < 1 - 1e-13``, zeros off the support.

        The box is checked on both sides: an off-diagonal entry above 1
        must be masked here, not left for the barrier to take the log of
        a negative number.  With a support only the support values
        ``entries`` are box-checked (gathered here on the dense path),
        and a dense stack's off-support zeros are enforced by comparing
        nonzero counts in one pass.  Support-value probes (``dense`` is
        ``None``) hold zeros off the support by construction:
        :class:`RayBatch` checks its base and direction once per ray.
        """
        ok = (diag < 1.0 - 1e-13).all(axis=1)
        if self._support is None:
            flat = dense.reshape(len(dense), -1)
            return ok & ((flat >= 0.0) & (flat <= 1.0)).all(axis=1)
        if entries is None:
            entries = dense[:, self._support]  # (k, #supported)
        ok &= ((entries >= 0.0) & (entries <= 1.0)).all(axis=1)
        if dense is not None:
            ok &= (
                np.count_nonzero(dense.reshape(len(dense), -1), axis=1)
                == np.count_nonzero(entries, axis=1)
            )
        return ok

    def _dense_chain(self, stack, diag):
        """Stacked stationary solve, sanitize, ``inv``; exposures from ``Z``.

        Returns ``(pis, zs, exposures, solved)``, ``solved`` marking the
        probes whose ``pi`` and ``Z`` came out finite and positive.
        """
        k, size = stack.shape[0], self.size
        eye, rhs = _stationary_system(size)
        # Stationary distributions: solve (I - P^T | ones) pi = e_n, one
        # right-hand side for the whole stack.
        systems = eye - np.transpose(stack, (0, 2, 1))
        systems[:, -1, :] = 1.0
        try:
            pis = np.linalg.solve(systems, rhs)
        except np.linalg.LinAlgError:
            pis = _solve_one_by_one(systems, rhs)
        # Sanitize exactly as the scalar solver does (clip round-off
        # negatives, renormalize): the cores below must match the scalar
        # path's bit for bit, or a state handed back by the line search
        # would not equal the one a scratch rebuild produces and reuse
        # would perturb trajectories.
        pis = np.clip(pis, 0.0, None)
        sums = pis.sum(axis=1, keepdims=True)
        pis = pis / np.where(sums > 0.0, sums, 1.0)
        # Fundamental matrices Z = inv(I - P + W).
        cores = eye - stack + pis[:, None, :]
        try:
            zs = np.linalg.inv(cores)
        except np.linalg.LinAlgError:
            zs = _invert_one_by_one(cores)
        # Finite and positive: NaN and inf fail both comparisons.
        solved = ((pis > 0.0) & (pis < np.inf)).all(axis=1) & np.isfinite(
            zs.reshape(k, -1)
        ).all(axis=1)
        z_diag = np.einsum("kii->ki", zs)
        diffs = z_diag[:, None, :] - zs  # (k, j, i): z_ii - z_ji
        w = stack * np.transpose(diffs, (0, 2, 1))
        w.reshape(k, -1)[:, :: size + 1] = 0.0  # the diagonals
        exposures = w.sum(axis=2) / (pis * (1.0 - diag))
        return pis, zs, exposures, solved

    def _sparse_chain(self, template, entries, diag, ok, reference):
        """Sparse stationary solves of the ``ok`` probes, no ``Z``.

        ``entries`` are the probes' support values, solved by
        ``template`` and refined against ``reference``'s core LU.
        Exposures use the closed form ``E_i = (1-pi_i)/(pi_i(1-p_ii))``.
        Same return contract as :meth:`_dense_chain` (``zs`` is
        ``None``); unsolved rows of ``pis`` are NaN.
        """
        k, size = entries.shape[0], self.size
        pis = np.full((k, size), np.nan)
        solved = np.zeros(k, dtype=bool)
        found = template.solve_batch(
            entries, np.nonzero(ok)[0],
            None if reference is None else reference.core_solver(),
        )
        for index, pi in found.items():
            if np.all(np.isfinite(pi)) and pi.min() > 0.0:
                pis[index] = pi
                solved[index] = True
        return pis, None, (1.0 - pis) / (pis * (1.0 - diag)), solved

    def ray_batch(self, matrix: np.ndarray, direction: np.ndarray):
        """Return the batched ray objective ``steps -> U_eps`` values.

        ``matrix`` is the ray's base: a :class:`ChainState` (whose core
        LU the sparse path refines probes against), a matrix, or
        support values.  The returned :class:`RayBatch` evaluates
        ``U_eps(matrix + step * direction)`` for a whole array of steps at
        once via :meth:`batch_values` — the line search's fast path — and
        remembers the winning probe's ``(pi, Z)`` so the optimizer can
        accept that candidate without refactorizing
        (:meth:`RayBatch.state_at`).
        """
        return RayBatch(self, matrix, direction)

    def multi_ray_batch(self, pairs) -> "MultiRayBatch":
        """Fused evaluator over several ``(matrix, direction)`` rays.

        The returned :class:`MultiRayBatch` stacks all participating
        rays' probes into one :meth:`batch_evaluate` call per
        line-search stage and keeps per-ray winners — the lockstep
        multi-start driver's hot path (see :mod:`repro.core.multistart`).
        """
        return MultiRayBatch.from_directions(self, pairs)

    # ------------------------------------------------------------------ #

    def _as_state(self, matrix_or_state) -> ChainState:
        if isinstance(matrix_or_state, ChainState):
            return matrix_or_state
        return self.build_state(np.asarray(matrix_or_state, float))


class DenseLayout:
    """The dense path's ray layout: a ray holds whole ``(M, M)`` matrices.

    The counterpart of the sparse path's
    :class:`~repro.markov.sparse.SparseStationaryTemplate`: gathering
    and scattering are the identity, and :meth:`project` is Eq. 11,
    support-restricted when the topology has a mask.
    """

    def __init__(self, support: Optional[np.ndarray]) -> None:
        self._support = support

    @staticmethod
    def values(matrix: np.ndarray) -> np.ndarray:
        return matrix

    @staticmethod
    def dense(values: np.ndarray) -> np.ndarray:
        return values

    def project(self, matrix: np.ndarray) -> np.ndarray:
        return project_row_sum_zero(matrix, self._support)


class RayBatch:
    """Batched ray objective that remembers the winning probe's state.

    Callable as ``steps -> U_eps values`` (the line search's
    ``batch_objective``).  While evaluating, it tracks the first
    strictly-best feasible probe in evaluation order — the same rule the
    conservative trisection uses to pick its step — and keeps that
    probe's ``(P, pi, Z)``.  After the search, :meth:`state_at` hands the
    accepted candidate's :class:`~repro.core.state.ChainState` back
    without any new factorization; the historical behavior rebuilt it
    from scratch, paying a redundant stationary solve plus fundamental
    factorization per accepted step.

    On the sparse path (see :meth:`CoverageCost.batch_evaluate`) the
    ray carries only the support values of its base and direction, so
    every probe is a ``(nnz,)`` row ``base + step * direction`` and a
    dense ``P`` is scattered only for a state handed back (the winner,
    a fallback probe).  Off-support zeros then hold for every probe by
    construction.  The descent hands in its current :class:`ChainState`,
    whose ``P`` is gathered to support values; ``(nnz,)`` support values
    are taken as they are; dense ``(M, M)`` inputs are gathered, and the
    constructor raises ``ValueError`` if they have mass off the support.

    The sparse ray holds its base state and evaluates every probe
    against it: each probe's ``pi`` is refined against the base's core
    LU (see :meth:`~repro.markov.sparse.SparseStationaryTemplate.
    solve_batch`), so it depends only on the base and the step.  A ray
    built from a bare matrix or values factors its base once, when it
    is built.
    """

    def __init__(
        self,
        cost: CoverageCost,
        matrix: np.ndarray,
        direction: np.ndarray,
    ) -> None:
        self._cost = cost
        self._template = cost._probe_template()
        self._state = None
        if isinstance(matrix, ChainState):
            self._state = matrix
            matrix = matrix.p
        matrix = np.asarray(matrix, dtype=float)
        direction = np.asarray(direction, dtype=float)
        if self._template is None:
            self._base, self._direction = matrix, direction
        else:
            # A state's P already holds no mass off the support.
            self._base = self._support_values(
                matrix, check=self._state is None
            )
            self._direction = self._support_values(direction)
            if self._state is None:
                self._state = self._base_state()
        self.rounds_per_call = speculative_rounds(
            cost.size, cost.resolved_linalg
        )
        self._pending = None
        self._best_step: Optional[float] = None
        self._best_value = np.inf
        self._best_parts = None

    def _support_values(self, array: np.ndarray, check: bool = True):
        """``array`` as ``(nnz,)`` support values: taken as they are, or
        gathered from an ``(M, M)`` matrix with no mass off the
        support."""
        template = self._template
        if array.shape == (template.nnz,):
            return array
        shape = (template.size, template.size)
        if array.shape != shape:
            raise ValueError(
                f"ray base and direction must have shape {shape} or "
                f"({template.nnz},), got {array.shape}"
            )
        values = template.values(array)
        if check and np.count_nonzero(array) != np.count_nonzero(values):
            raise ValueError(
                "ray base or direction has mass on legs outside the "
                "topology's adjacency support"
            )
        return values

    def step_bound(self) -> float:
        """The largest feasible step along the ray (shrunk by a hair).

        :func:`~repro.core.linesearch.feasible_step_bound` over the
        ray's values; on the sparse path the off-support entries it
        skips have a zero direction and bound nothing, so the bound is
        the dense one bit for bit.
        """
        return feasible_step_bound(self._base, self._direction)

    def _probes(self, steps: np.ndarray) -> np.ndarray:
        """``base + step * direction`` per step: ``(k, M, M)``/``(k, nnz)``."""
        shape = (-1,) + (1,) * self._base.ndim
        return self._base[None] + steps.reshape(shape) * self._direction

    def _matrix(self, probe: np.ndarray) -> np.ndarray:
        """The dense ``P`` of one probe (scattered on the sparse path)."""
        if self._template is None:
            return probe
        return self._template.dense(probe)

    def _base_state(self) -> Optional[ChainState]:
        """The state of a sparse ray's bare base, its one factorization;
        ``None`` for a base that is no ergodic chain, whose probes then
        refine against the first one that factors."""
        try:
            return self._cost.build_state(
                self._template.dense(self._base), check=False
            )
        except (ValueError, RuntimeError):
            return None

    def _evaluate(self, probes: np.ndarray):
        """:meth:`CoverageCost.batch_evaluate` of this ray's probes,
        refined against the base state on the sparse path."""
        return self._cost.batch_evaluate(probes, reference=self._state)

    def __call__(self, steps: np.ndarray) -> np.ndarray:
        values = self.speculate(steps)
        self.commit(None)
        return values

    def speculate(self, steps: np.ndarray) -> np.ndarray:
        """``U_eps`` at ``steps`` (non-finite ones ``inf``), held for
        :meth:`commit`: the winner is not tracked yet."""
        steps = np.asarray(steps, dtype=float)
        probes = self._probes(steps)
        self._pending = (steps, probes) + self._evaluate(probes)
        return self._pending[2]

    def commit(self, used) -> None:
        """Track the winner among the last :meth:`speculate`'s probes.

        ``used`` indexes the probes a search used, in the order it used
        them (``None``: all of them, in evaluation order).  Probes a
        search did not reach never become the winner.
        """
        self._observe(*self._pending, used=used)
        self._pending = None

    def _observe(self, steps, probes, values, pis, zs, ok, used=None):
        """Track the first strictly-best feasible probe of one batch.

        Shared by the single-ray path (:meth:`commit`) and the fused
        multi-ray path (:class:`MultiRayBatch`), which hands in each
        ray's slice of one stacked evaluation — so the winner a ray
        records is independent of how its probes were batched.  With
        ``used``, only those probes are candidates, in that order.
        """
        if used is not None:
            values, ok = values[used], ok[used]
        usable = ok & np.isfinite(values)
        if usable.any():
            masked = np.where(usable, values, np.inf)
            position = int(np.argmin(masked))
            if masked[position] < self._best_value:
                index = position if used is None else int(used[position])
                self._best_step = float(steps[index])
                self._best_value = float(masked[position])
                self._best_parts = (
                    probes[index],
                    pis[index],
                    None if zs is None else zs[index],
                )

    def state_at(self, step: float):
        """The recorded winner's state, or ``None`` on any mismatch.

        Returns a state only when ``step`` is exactly the recorded best
        probe, so a caller falling back to
        :meth:`ChainState.from_matrix` on ``None`` is always correct.
        """
        if self._best_parts is None or self._best_step != float(step):
            return None
        probe, pi, z = self._best_parts
        return self._cost._probe_state(self._matrix(probe), pi, z)

    def probe_state(self, step: float):
        """Evaluate one extra step; return ``(value, state_or_None)``.

        The perturbed algorithm's random fallback step goes through this
        batched path, so even annealing moves get their state without a
        scalar rebuild.  Does not disturb the winner tracked by
        :meth:`state_at`.
        """
        probes = self._probes(np.asarray([float(step)]))
        values, pis, zs, ok = self._evaluate(probes)
        if not ok[0] or not np.isfinite(values[0]):
            return float(values[0]), None
        state = self._cost._probe_state(
            self._matrix(probes[0]), pis[0], None if zs is None else zs[0]
        )
        return float(values[0]), state


class MultiRayBatch:
    """Lockstep evaluation of several rays, one stage at a time.

    Each ray is a :class:`RayBatch` with its own base matrix, direction,
    and winner tracking.  On the dense path :meth:`evaluate`
    concatenates every participating ray's ``(k, M, M)`` probes into a
    single stack, runs one :meth:`CoverageCost.batch_evaluate`, and
    demultiplexes the per-ray slices back through each ray's
    ``_observe`` — the exact first-strictly-best rule the single-ray
    path applies.  Because the dense ``batch_evaluate`` treats every
    stack member independently, the values (and therefore each ray's
    recorded winner) are bit-identical to evaluating the rays one at a
    time; only the Python-level and LAPACK dispatch overhead is
    amortized across rays.  Support-value probes (the sparse path)
    refine against their own ray's base state, so there each ray gets
    its own call, which is exactly the single-ray evaluation.

    Used by :mod:`repro.core.multistart` to fuse the line searches of
    all active multi-start trajectories of a dense cost at each descent
    iteration.
    """

    def __init__(self, cost: CoverageCost, rays) -> None:
        self._cost = cost
        self.rays: List[RayBatch] = list(rays)

    @classmethod
    def from_directions(cls, cost: CoverageCost, pairs):
        """Build from ``(matrix, direction)`` pairs."""
        return cls(cost, [RayBatch(cost, m, d) for m, d in pairs])

    def __len__(self) -> int:
        return len(self.rays)

    def _evaluated(self, steps_per_ray):
        """Evaluate the participating rays' probes; per-ray results.

        ``steps_per_ray`` aligns with :attr:`rays`; ``None`` entries sit
        out this stage.  Returns ``(index, steps, probes, values, pis,
        zs, ok)`` per participating ray.  Dense probes go through one
        fused :meth:`CoverageCost.batch_evaluate`.  Support-value probes
        are evaluated one ray per call, each against its ray's base
        state (one reference per call).
        """
        parts = []
        for index, steps in enumerate(steps_per_ray):
            if steps is None:
                continue
            steps = np.asarray(steps, dtype=float)
            parts.append((index, steps, self.rays[index]._probes(steps)))
        if not parts:
            return []
        if self._cost._probe_template() is not None:
            return [
                (index, steps, probes) + self.rays[index]._evaluate(probes)
                for index, steps, probes in parts
            ]
        fused = np.concatenate([probes for _, _, probes in parts], axis=0)
        values, pis, zs, ok = self._cost.batch_evaluate(fused)
        out = []
        offset = 0
        for index, steps, probes in parts:
            span = slice(offset, offset + steps.size)
            out.append((
                index, steps, probes, values[span], pis[span],
                None if zs is None else zs[span], ok[span],
            ))
            offset += steps.size
        return out

    def speculate(self, steps_per_ray) -> List[Optional[np.ndarray]]:
        """One fused line-search stage across the rays, winners held.

        ``steps_per_ray[i]`` is the step array ray ``i`` evaluates this
        stage, or ``None`` for a ray sitting the stage out.  Returns the
        per-ray ``U_eps`` arrays (``None`` where the input was ``None``);
        each participating ray then commits the probes its search used
        (:meth:`RayBatch.commit`), exactly as if it had evaluated its
        steps alone.
        """
        out: List[Optional[np.ndarray]] = [None] * len(self.rays)
        for index, *evaluated in self._evaluated(steps_per_ray):
            self.rays[index]._pending = tuple(evaluated)
            out[index] = evaluated[2]
        return out

    def evaluate(self, steps_per_ray) -> List[Optional[np.ndarray]]:
        """:meth:`speculate`, with every probe committed."""
        out = self.speculate(steps_per_ray)
        for ray, values in zip(self.rays, out):
            if values is not None:
                ray.commit(None)
        return out

    def probe_states(self, step_per_ray) -> List[Optional[tuple]]:
        """Fused :meth:`RayBatch.probe_state` across the rays.

        ``step_per_ray[i]`` is a single extra step for ray ``i`` or
        ``None``.  Returns ``(value, state_or_None)`` per probed ray
        without disturbing any ray's recorded winner — the lockstep
        driver evaluates all trajectories' random fallback steps in one
        stacked call this way.
        """
        out: List[Optional[tuple]] = [None] * len(self.rays)
        steps_per_ray = [
            None if step is None else np.asarray([float(step)])
            for step in step_per_ray
        ]
        for index, _, probes, values, pis, zs, ok in self._evaluated(
            steps_per_ray
        ):
            if not ok[0] or not np.isfinite(values[0]):
                out[index] = (float(values[0]), None)
            else:
                state = self._cost._probe_state(
                    self.rays[index]._matrix(probes[0]), pis[0],
                    None if zs is None else zs[0],
                )
                out[index] = (float(values[0]), state)
        return out


@functools.lru_cache(maxsize=8)
def _stationary_system(size: int):
    """``(I, e_n)`` of the stacked stationary solve, read-only."""
    eye = np.eye(size)
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    eye.flags.writeable = rhs.flags.writeable = False
    return eye, rhs


def _solve_one_by_one(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per-item fallback when a batched solve hits one singular system."""
    k, size = systems.shape[0], systems.shape[1]
    out = np.full((k, size), np.nan)
    for index in range(k):
        try:
            out[index] = np.linalg.solve(systems[index], rhs)
        except np.linalg.LinAlgError:
            pass
    return out


def _invert_one_by_one(cores: np.ndarray) -> np.ndarray:
    """Per-item fallback when a batched inversion hits a singular core."""
    k = cores.shape[0]
    out = np.full_like(cores, np.nan)
    for index in range(k):
        try:
            out[index] = np.linalg.inv(cores[index])
        except np.linalg.LinAlgError:
            pass
    return out
