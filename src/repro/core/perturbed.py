"""The paper's descent algorithm, variants V1-V4, as one walk.

Section V builds one algorithm in layers, and this module runs every
layer through the same per-iteration loop (:func:`advance_walk` over a
:class:`PerturbedWalk`):

* **V1** (:func:`optimize_basic`) — from the uniform matrix, step
  ``P <- P + V * dt`` along ``V = -Pi [D_P U]`` with a small constant
  ``dt``, halving it if the candidate is not a valid chain, and take
  every step;
* **V2 + V3** (:func:`optimize_adaptive`) — from a random matrix, pick
  each step by the conservative trisection line search of
  :mod:`repro.core.linesearch`, and stop when it returns ``dt* = 0``:
  no improving step along the descent direction, i.e. (numerically) a
  local optimum, the paper's definition;
* **V4** (:func:`optimize_perturbed`) — escape those local optima with
  two mechanisms:

  1. **Gradient noise** — mean-zero Gaussian noise with standard
     deviation ``sigma`` is added to ``[D_P U]`` before projection,
     randomizing the search direction.
  2. **Annealed acceptance** — when the line search finds no improving
     step (``dt* = 0``), a random feasible step is taken instead; a move
     that worsens the cost is accepted with probability
     ``exp(-Delta_U / T(count))``, where ``Delta_U`` is the worsening
     normalized by the best cost found so far and ``T(count) =
     k / ln(count + e)`` is a Hajek-style logarithmic cooling schedule.

The printed formula in the paper (``exp(-Delta_U / (k log count))``) would
make acceptance *more* likely over time, contradicting both the
surrounding text and the cited Hajek cooling result; see DESIGN.md
section 2 for why we implement the decreasing schedule.

Each variant's options class fixes its three choices as class constants
(not fields, so they never enter a request digest): ``STEP_POLICY``
(``"constant"`` or ``"trisection"``), ``PERTURBATION`` (``"none"`` or
``"gaussian"``) and ``ACCEPTANCE`` (``"greedy"``: take the chosen step;
or ``"annealed"``).  Greedy walks report their final iterate; annealing
deliberately wanders uphill, so annealed walks report the best one seen.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from repro.core.cost import CoverageCost, RayBatch
from repro.core.initializers import paper_random_matrix, uniform_matrix
from repro.core.linesearch import feasible_step_bound, trisection_search
from repro.core.options import OptimizerOptions, SearchOptions
from repro.core.result import IterationRecord, OptimizationResult
from repro.core.state import ChainState
from repro.utils import perf
from repro.utils.linalg import frobenius_norm
from repro.utils.rng import (
    RandomState,
    as_generator,
    generator_from_state,
    generator_state,
)

#: Schema tag of :meth:`PerturbedWalk.snapshot` payloads (the service's
#: mid-run job checkpoints, :mod:`repro.service`).
WALK_SNAPSHOT_SCHEMA = "repro/walk-snapshot/v2"

#: Stop reasons that mean the walk converged (rather than ran out).
CONVERGED_REASONS = ("stalled", "gradient_tol", "local_optimum")

#: Halvings a constant step may take before the walk gives up.
MAX_HALVINGS = 60


@dataclass(frozen=True)
class BasicDescentOptions(OptimizerOptions):
    """Knobs of the basic algorithm (V1).

    ``step_size`` is the paper's ``dt`` (its experiments use ``1e-6``
    with travel times in seconds).  Convergence is declared when the
    relative cost improvement stays below ``rtol`` for ``patience``
    consecutive iterations, or the projected-gradient norm drops below
    ``gradient_tol``.
    """

    STEP_POLICY: ClassVar[str] = "constant"
    PERTURBATION: ClassVar[str] = "none"
    ACCEPTANCE: ClassVar[str] = "greedy"

    max_iterations: int = 10_000
    rtol: float = 1e-10
    step_size: float = 1e-6
    patience: int = 10
    gradient_tol: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.step_size <= 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class AdaptiveOptions(SearchOptions):
    """Knobs of the adaptive algorithm (V2 + V3)."""

    STEP_POLICY: ClassVar[str] = "trisection"
    PERTURBATION: ClassVar[str] = "none"
    ACCEPTANCE: ClassVar[str] = "greedy"

    max_iterations: int = 500


@dataclass(frozen=True)
class PerturbedOptions(SearchOptions):
    """Knobs of the perturbed algorithm (V2 + V3 + V4).

    ``sigma`` scales the gradient noise *relative to* the gradient's RMS
    magnitude when ``relative_noise`` is true (robust across topologies
    whose gradient scales differ by orders of magnitude); set
    ``relative_noise=False`` for absolute noise.  ``cooling_k`` is the
    paper's constant ``k`` (its experiments use ``k = 10000``).
    ``stall_limit`` stops a run after that many iterations without
    improving the best cost.
    """

    STEP_POLICY: ClassVar[str] = "trisection"
    PERTURBATION: ClassVar[str] = "gaussian"
    ACCEPTANCE: ClassVar[str] = "annealed"

    max_iterations: int = 600
    sigma: float = 0.5
    relative_noise: bool = True
    cooling_k: float = 10_000.0
    stall_limit: int = 120

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.cooling_k <= 0:
            raise ValueError(f"cooling_k must be > 0, got {self.cooling_k}")
        if self.stall_limit < 1:
            raise ValueError("stall_limit must be >= 1")


def acceptance_probability(
    worsening: float, best_cost: float, count: int, cooling_k: float
) -> float:
    """Annealed probability of accepting a move that worsens ``U`` by
    ``worsening`` at iteration ``count``.

    ``worsening`` is normalized by ``|best_cost|`` so the schedule works
    without knowing the range of ``U_eps`` beforehand (the paper's stated
    motivation for the normalization).  The temperature is
    ``T = cooling_k / ln(count + e)``, strictly decreasing in ``count``.
    """
    if worsening <= 0.0:
        return 1.0
    scale = max(abs(best_cost), 1e-300)
    normalized = worsening / scale
    temperature = cooling_k / np.log(count + np.e)
    return float(np.exp(-normalized / temperature))


class SearchSpec(NamedTuple):
    """What one iteration's line search needs: the ray and its bounds.

    ``ray`` is ``None`` under the constant step policy, which searches
    nothing.
    """

    ray: Optional[RayBatch]
    bound: float
    baseline: float


class PerturbedWalk:
    """One descent trajectory (any of V1-V4), advanced iteration by
    iteration.

    The options class picks the variant (see the module docstring).
    :func:`advance_walk` drives a single walk; the in-process
    multi-start (:mod:`repro.core.multistart`) advances many perturbed
    walks one stage at a time, fusing their line-search probes into
    stacked evaluations.
    Both paths run the identical per-iteration arithmetic and draw from
    the walk's own RNG in the identical order — gradient noise, then the
    fallback step, then the acceptance test (which is short-circuited,
    drawing nothing, for non-worsening moves) — so a walk's trajectory
    is bit-identical regardless of the driver.

    Protocol per iteration: :meth:`begin_iteration` returns a
    :class:`SearchSpec` (or ``None`` once finished); the driver runs the
    trisection search over that ray (or none, for a constant step), then
    calls :meth:`choose_step` with the search result, which returns a
    fallback step needing a probe (or ``None``); finally
    :meth:`complete_iteration` with the ray and the optional probe
    applies the move.  :meth:`result` packages the outcome.
    """

    def __init__(
        self,
        cost: CoverageCost,
        initial: Optional[np.ndarray],
        rng,
        options: OptimizerOptions,
    ) -> None:
        self.cost = cost
        self.options = options
        self.rng = as_generator(rng)
        if isinstance(initial, ChainState):  # a restored iterate
            self.state = initial
        else:
            if initial is not None:
                matrix = np.array(initial, dtype=float)
            elif options.STEP_POLICY == "constant":
                matrix = uniform_matrix(cost.size, support=cost.support)
            else:
                matrix = paper_random_matrix(
                    cost.size, seed=self.rng, support=cost.support
                )
            self.state = cost.build_state(matrix)
        self.breakdown = cost.evaluate(self.state)
        self.best_matrix = self.state.p.copy()
        self.best_pi = self.state.pi
        self.best_u_eps = self.breakdown.u_eps
        self.best_breakdown = self.breakdown
        self.history = []
        self.checkpoints = []
        self.stall = 0
        self.stop_reason = "max_iterations"
        self.iteration = 0
        self.accepted_steps = 0
        self.accept_factorizations = 0
        self.finished = options.max_iterations < 1

    def _finish(self, reason: str, counted: bool = True) -> None:
        """Stop the walk; an uncounted stop takes back its iteration."""
        self.stop_reason = reason
        self.finished = True
        if not counted:
            self.iteration -= 1

    def begin_iteration(self) -> Optional[SearchSpec]:
        """Start the next iteration: (noisy) direction and step bound.

        The noisy gradient, the direction and the ray's base are held
        in the cost's :meth:`~repro.core.cost.CoverageCost.ray_layout`:
        support values on the sparse path, whole ``(M, M)`` matrices on
        the dense path.  The Gaussian noise is drawn in that layout, one
        standard normal per value: ``M^2`` on the dense path, ``nnz`` on
        the sparse path, whose off-support draws the projection (Eq. 11)
        would discard.  The recorded ``gradient_norm`` is the Frobenius
        norm of the whole derivative for perturbed walks (it also scales
        relative noise, per ``M^2`` entries on either path) and of the
        direction for basic and adaptive walks; the sparse path takes
        both from support values and ``M``-vectors, so a sparse
        iteration builds no ``(M, M)`` array.
        """
        if self.finished:
            return None
        options = self.options
        self.iteration += 1
        layout = self.cost.ray_layout()
        gaussian = options.PERTURBATION == "gaussian"
        noisy, norm = self.cost.gradient_values(self.state, norm=gaussian)
        if gaussian:
            self._gradient_norm = norm
            if options.sigma > 0.0:
                if options.relative_noise:
                    rms = self._gradient_norm / self.state.p.size**0.5
                    noise_scale = options.sigma * max(rms, 1e-300)
                else:
                    noise_scale = options.sigma
                # ``normal(0, s)`` draws ``0 + s * z``: the same values
                # and stream.
                noisy = noisy + noise_scale * self.rng.standard_normal(
                    noisy.shape
                )
        self._direction = -layout.project(noisy)
        if options.PERTURBATION == "none":
            self._gradient_norm = frobenius_norm(self._direction)
        if (
            options.STEP_POLICY == "constant"
            and self._gradient_norm <= options.gradient_tol
        ):
            self._finish("gradient_tol", counted=False)
            return None
        self._base = layout.values(self.state.p)
        if options.STEP_POLICY == "constant":
            ray = None
            self._bound = feasible_step_bound(self._base, self._direction)
        else:
            ray = self.cost.ray_batch(self.state, self._direction)
            self._bound = ray.step_bound()
        return SearchSpec(
            ray=ray, bound=self._bound, baseline=self.breakdown.u_eps
        )

    def choose_step(self, search) -> Optional[float]:
        """Pick the step: the constant ``dt`` (``search`` is ``None``),
        the line-search step, or — when that is ``dt* = 0`` — a local
        optimum stop (greedy) or a random fallback step (annealed).

        Returns the fallback step when it needs a probe evaluation from
        the driver, else ``None``.
        """
        options = self.options
        self._step = 0.0
        self._from_search = False
        if search is None:
            if self._bound <= 0.0:
                self._finish("no_feasible_step")
            else:
                self._step = min(options.step_size, self._bound)
        elif search.step > 0.0:
            self._step = search.step
            self._from_search = True
        elif options.ACCEPTANCE == "greedy":
            self._finish("local_optimum", counted=False)
        elif self._bound > 0.0:
            # Paper: "if dt* = 0 then dt = rand" within the feasible
            # range.
            self._step = self.rng.uniform(0.0, self._bound)
            if self._step > 0.0:
                return self._step
        return None

    def _candidate(self, ray, probe):
        """The candidate state and breakdown at ``P + step * V``.

        Line-search winners come back from the
        :class:`~repro.core.cost.RayBatch` with their already-computed
        ``(pi, Z)``, and random fallback steps are evaluated through the
        same batched path — either way no scalar refactorization
        happens.  ``probe`` is the driver's ``(value, state_or_None)``
        evaluation of the fallback step :meth:`choose_step` asked for
        (the lockstep driver fuses those across trajectories).  A
        constant step (no ``ray``) is built from scratch and halved until
        that build succeeds; a winner the ray holds no state for gets one
        scratch build.  Returns ``(None, None)`` for infeasible
        candidates.
        """
        cost = self.cost
        state = None
        if ray is not None:
            if self._from_search:
                state = ray.state_at(self._step)
            else:
                state = probe[1]
                if state is None:
                    return None, None
        if state is None:
            for _ in range(MAX_HALVINGS if ray is None else 1):
                try:
                    state = cost.build_state(
                        cost.ray_layout().dense(
                            self._base + self._step * self._direction
                        ),
                        check=False,
                    )
                    break
                except (ValueError, np.linalg.LinAlgError, RuntimeError):
                    self._step *= 0.5
            else:
                return None, None
        try:
            return state, cost.evaluate(state)
        except (ValueError, np.linalg.LinAlgError):
            return None, None

    def _accepts(self, candidate) -> bool:
        """Greedy takes the chosen step; annealing tests it (Hajek)."""
        if self.options.ACCEPTANCE == "greedy":
            return True
        if not np.isfinite(candidate.u_eps):
            return False
        worsening = candidate.u_eps - self.breakdown.u_eps
        probability = acceptance_probability(
            worsening, self.best_u_eps, self.iteration,
            self.options.cooling_k,
        )
        return worsening <= 0.0 or self.rng.uniform() < probability

    def complete_iteration(self, ray, probe=None) -> None:
        """Acquire the candidate, run the acceptance test, bookkeep."""
        if self.finished:
            return
        options = self.options
        previous = self.breakdown
        accepted = False
        if self._step > 0.0:
            with perf.perf_scope() as build:
                candidate_state, candidate = self._candidate(ray, probe)
            if candidate is None:
                if options.ACCEPTANCE == "greedy":
                    self._finish("step_collapse")
                    return
            elif self._accepts(candidate):
                self.state = candidate_state
                self.breakdown = candidate
                accepted = True
                self.accepted_steps += 1
                self.accept_factorizations += build.factorizations

        improved = self.breakdown.u_eps < self.best_u_eps - 1e-15
        if improved:
            self.best_u_eps = self.breakdown.u_eps
            self.best_matrix = self.state.p.copy()
            self.best_pi = self.state.pi
            self.best_breakdown = self.breakdown
        # Annealed walks stall on the best cost, constant steps on the
        # per-step improvement; trisection greedy walks stop at dt* = 0.
        stall_limit = None
        if options.ACCEPTANCE == "annealed":
            stall_limit = options.stall_limit
        elif options.STEP_POLICY == "constant":
            stall_limit = options.patience
            improved = previous.u_eps - self.breakdown.u_eps > (
                options.rtol * max(1.0, abs(previous.u_eps))
            )
        self.stall = 0 if improved else self.stall + 1

        if options.record_history:
            self.history.append(
                IterationRecord(
                    iteration=self.iteration,
                    u_eps=self.breakdown.u_eps,
                    u=self.breakdown.u,
                    delta_c=self.breakdown.delta_c,
                    e_bar=self.breakdown.e_bar,
                    step=self._step if accepted else 0.0,
                    gradient_norm=self._gradient_norm,
                    accepted=accepted,
                )
            )

        if (
            options.checkpoint_every
            and self.iteration % options.checkpoint_every == 0
        ):
            self.checkpoints.append((self.iteration, self.state.p.copy()))

        if stall_limit is not None and self.stall >= stall_limit:
            self._finish("stalled")
        elif self.iteration >= options.max_iterations:
            self.finished = True

    def snapshot(self) -> dict:
        """JSON-plain snapshot of the walk at an iteration boundary.

        Valid between :meth:`complete_iteration` and the next
        :meth:`begin_iteration` (per-iteration scratch like the current
        ray is deliberately not captured).  The snapshot carries the
        current and best iterates with their stationary distributions,
        the bookkeeping counters, the recorded history, and the RNG's
        exact stream position (:func:`~repro.utils.rng.generator_state`).
        :meth:`restore` rebuilds the rest — core factorizations and cost
        breakdowns — so a restored walk continues the trajectory bit for
        bit: on the dense reference path a scratch build equals the
        line-search states the walk carried (the invariant
        ``tests/core/test_reuse_and_perf.py`` pins); on the sparse path a
        line-search ``pi`` (iteratively refined) can differ from a
        scratch solve in the last bits, so there the carried ``pi`` is
        reused.
        """
        return {
            "schema": WALK_SNAPSHOT_SCHEMA,
            "iteration": int(self.iteration),
            "matrix": self.state.p.tolist(),
            "pi": self.state.pi.tolist(),
            "best_matrix": np.asarray(self.best_matrix).tolist(),
            "best_pi": np.asarray(self.best_pi).tolist(),
            "best_u_eps": float(self.best_u_eps),
            "stall": int(self.stall),
            "stop_reason": self.stop_reason,
            "finished": bool(self.finished),
            "accepted_steps": int(self.accepted_steps),
            "accept_factorizations": int(self.accept_factorizations),
            "rng": generator_state(self.rng),
            "history": [asdict(record) for record in self.history],
            "checkpoints": [
                [int(iteration), np.asarray(matrix).tolist()]
                for iteration, matrix in self.checkpoints
            ],
        }

    @classmethod
    def restore(
        cls,
        cost: CoverageCost,
        snapshot: dict,
        options: OptimizerOptions,
    ) -> "PerturbedWalk":
        """Rebuild a walk from a :meth:`snapshot` payload.

        ``cost`` and ``options`` must describe the same problem the
        snapshot was taken under — they are part of the job's identity,
        not of the snapshot.
        """
        schema = snapshot.get("schema")
        if schema != WALK_SNAPSHOT_SCHEMA:
            raise ValueError(
                f"expected schema {WALK_SNAPSHOT_SCHEMA!r}, got "
                f"{schema!r}"
            )
        matrix = np.asarray(snapshot["matrix"], dtype=float)
        walk = cls(cost, _restored_state(cost, matrix, snapshot["pi"]),
                   generator_from_state(snapshot["rng"]), options)
        walk.iteration = int(snapshot["iteration"])
        walk.stall = int(snapshot["stall"])
        walk.stop_reason = snapshot["stop_reason"]
        walk.finished = bool(snapshot["finished"])
        walk.accepted_steps = int(snapshot["accepted_steps"])
        walk.accept_factorizations = int(
            snapshot["accept_factorizations"]
        )
        best = _restored_state(
            cost, np.asarray(snapshot["best_matrix"], dtype=float),
            snapshot["best_pi"],
        )
        walk.best_matrix = best.p.copy()
        walk.best_pi = best.pi
        walk.best_u_eps = float(snapshot["best_u_eps"])
        walk.best_breakdown = cost.evaluate(best)
        walk.history = [
            IterationRecord(**record) for record in snapshot["history"]
        ]
        walk.checkpoints = [
            (int(iteration), np.asarray(stored, dtype=float))
            for iteration, stored in snapshot["checkpoints"]
        ]
        return walk

    def result(self, run_perf=None) -> OptimizationResult:
        """Package the walk's outcome: the final iterate for greedy
        walks, the best one for annealed walks (as the paper reports)."""
        greedy = self.options.ACCEPTANCE == "greedy"
        matrix = self.state.p.copy() if greedy else self.best_matrix
        breakdown = self.breakdown if greedy else self.best_breakdown
        return OptimizationResult(
            matrix=matrix,
            u_eps=breakdown.u_eps,
            u=breakdown.u,
            delta_c=breakdown.delta_c,
            e_bar=breakdown.e_bar,
            iterations=self.iteration,
            converged=self.stop_reason in CONVERGED_REASONS,
            stop_reason=self.stop_reason,
            history=self.history,
            best_u_eps=None if greedy else self.best_u_eps,
            checkpoints=self.checkpoints,
            perf=run_perf,
        )


def _restored_state(cost: CoverageCost, matrix, pi) -> ChainState:
    """The state of a snapshot iterate: a scratch build on the dense
    path, the carried ``pi`` with a fresh core factorization on the
    sparse path."""
    if cost.resolved_linalg == "sparse":
        return cost.state_from_parts(
            matrix, np.asarray(pi, dtype=float), None
        )
    return cost.build_state(matrix)


def advance_walk(
    cost: CoverageCost, walk: PerturbedWalk, options: OptimizerOptions
) -> bool:
    """Run one complete iteration of ``walk``; ``False`` once finished.

    The single per-iteration driver shared by every method's entry
    point and the service's checkpointing runner
    (:mod:`repro.service.runner`) — both therefore execute the identical
    call sequence (ray build, trisection, fallback probe, acceptance),
    so a job driven with per-iteration checkpointing is bit-identical to
    a plain run.
    """
    spec = walk.begin_iteration()
    if spec is None:
        return False
    if options.STEP_POLICY == "constant":
        walk.choose_step(None)
        walk.complete_iteration(None)
        return True
    ray = spec.ray
    search = trisection_search(
        upper=spec.bound,
        baseline=spec.baseline,
        rounds=options.trisection_rounds,
        improvement_rtol=options.rtol,
        geometric_decades=options.geometric_decades,
        batch_objective=ray,
    )
    fallback = walk.choose_step(search)
    probe = ray.probe_state(fallback) if fallback is not None else None
    walk.complete_iteration(ray, probe)
    return True


def _run_walk(
    cost: CoverageCost,
    initial: Optional[np.ndarray],
    seed: RandomState,
    options: OptimizerOptions,
) -> OptimizationResult:
    """Drive one walk to completion under a per-run perf scope."""
    started = time.perf_counter()
    with perf.perf_scope() as counters:
        walk = PerturbedWalk(cost, initial, seed, options)
        while advance_walk(cost, walk, options):
            pass

    return walk.result(
        run_perf=perf.OptimizerPerf.from_counters(
            counters,
            accepted_steps=walk.accepted_steps,
            accept_factorizations=walk.accept_factorizations,
            seconds=time.perf_counter() - started,
        )
    )


def optimize_basic(
    cost: CoverageCost,
    initial: Optional[np.ndarray] = None,
    options: Optional[BasicDescentOptions] = None,
) -> OptimizationResult:
    """Run the basic algorithm (V1) on ``cost``.

    ``initial`` defaults to the uniform matrix ``p_ij = 1/M`` as in the
    paper's V1; pass a random matrix for the V2 variant.
    """
    return _run_walk(cost, initial, None, options or BasicDescentOptions())


def optimize_adaptive(
    cost: CoverageCost,
    initial: Optional[np.ndarray] = None,
    seed: RandomState = None,
    options: Optional[AdaptiveOptions] = None,
) -> OptimizationResult:
    """Run the adaptive algorithm (V2 + V3) on ``cost``.

    ``initial`` defaults to the paper's V2 random matrix drawn with
    ``seed``.  Returns with ``stop_reason = "local_optimum"`` when the line
    search finds no improving step — the behavior Fig. 2 measures.
    """
    return _run_walk(cost, initial, seed, options or AdaptiveOptions())


def optimize_perturbed(
    cost: CoverageCost,
    initial: Optional[np.ndarray] = None,
    seed: RandomState = None,
    options: Optional[PerturbedOptions] = None,
) -> OptimizationResult:
    """Run the stochastically perturbed algorithm on ``cost``.

    The returned ``matrix``/``u_eps`` are the **best** iterate found (the
    quantity the paper reports); the full trajectory, including rejected
    and uphill moves, is available in ``history``.
    """
    return _run_walk(cost, initial, seed, options or PerturbedOptions())
