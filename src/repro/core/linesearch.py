"""Step-size selection: feasibility bounds and conservative trisection.

Variant V3 of the paper chooses the step ``dt* = argmin_d U(P + d V)``
where ``V`` is the (projected, negated) gradient direction.  Because the
cost along the ray is not known to be unimodal, the paper uses a
*conservative trisection*: each refinement discards only one third of the
current interval, so a minimum cannot be bracketed out by a single
misleading comparison.

Two additions over the paper's sketch, both needed in practice:

* a **geometric pre-sweep** across step scales — the log-barrier makes the
  useful step range span many orders of magnitude near the feasibility
  boundary, where an interval-scale search alone stalls;
* a **batched objective**: callers may supply ``d-array -> U-array`` so
  all probes of a sweep are evaluated in one vectorized linear-algebra
  call (see :meth:`repro.core.cost.CoverageCost.batch_values`).

Feasibility: the ray must keep every ``p_ij`` strictly inside ``(0, 1)``
(``U_eps`` is infinite on the boundary).  The upper bound on ``d`` is the
largest step keeping all entries in the closed box, shrunk by a hair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.utils.linalg import max_feasible_step

#: Fraction of the boundary-hitting step that is considered usable.
FEASIBLE_SHRINK = 1.0 - 1e-9


@dataclass(frozen=True)
class LineSearchResult:
    """Outcome of one line search.

    ``step == 0`` signals that no improving step exists along the ray
    within the resolution of the search — the paper's local-optimum
    termination criterion for the adaptive algorithm.
    """

    step: float
    value: float
    evaluations: int
    step_bound: float


def feasible_step_bound(matrix: np.ndarray, direction: np.ndarray) -> float:
    """Largest step keeping ``matrix + step * direction`` inside ``[0, 1]``.

    Returns ``0`` for a zero direction.  The row-sum constraint needs no
    bounding: ``direction`` has zero row sums by construction.
    """
    norm = float(np.abs(direction).max(initial=0.0))
    if norm <= 0.0:
        return 0.0
    bound = max_feasible_step(matrix, direction, lower=0.0, upper=1.0)
    if not np.isfinite(bound):
        # Cannot happen for a nonzero zero-row-sum direction (some entry
        # must decrease), but guard against degenerate inputs.
        return 0.0
    return bound * FEASIBLE_SHRINK


class _RayEvaluator:
    """Uniform wrapper over scalar and batched ray objectives."""

    def __init__(
        self,
        objective: Optional[Callable[[float], float]],
        batch_objective: Optional[Callable[[np.ndarray], np.ndarray]],
    ) -> None:
        if objective is None and batch_objective is None:
            raise ValueError("provide objective or batch_objective")
        self._objective = objective
        self._batch = batch_objective
        self.evaluations = 0

    def __call__(self, steps: Sequence[float]) -> np.ndarray:
        steps = np.asarray(steps, dtype=float)
        self.evaluations += steps.size
        if self._batch is not None:
            with np.errstate(all="ignore"):
                values = np.asarray(self._batch(steps), dtype=float)
            values[~np.isfinite(values)] = np.inf
            return values
        values = np.empty(steps.size)
        for index, step in enumerate(steps):
            try:
                value = float(self._objective(float(step)))
            except (ValueError, np.linalg.LinAlgError, FloatingPointError):
                value = np.inf
            values[index] = value if np.isfinite(value) else np.inf
        return values


class TrisectionState:
    """One conservative trisection search, advanced evaluation by
    evaluation.

    :func:`trisection_search` drives this state machine to completion
    against a single ray; the in-process multi-start
    (:mod:`repro.core.multistart`) instead advances *many* instances one
    stage at a time, fusing each stage's probe evaluations across rays
    into a single stacked call (see
    :class:`repro.core.cost.MultiRayBatch`).  Both paths execute the
    identical decision arithmetic, so the resulting steps are
    bit-identical by construction.

    Protocol: :meth:`sweep_steps` -> :meth:`observe_sweep` ->
    repeatedly (:meth:`round_steps` -> :meth:`observe_round`) until
    ``round_steps`` returns ``None`` -> :meth:`result`.  A search that
    is finished (infeasible bound, non-finite baseline, exhausted
    rounds, or a collapsed bracket) returns ``None`` from both
    ``*_steps`` methods.
    """

    def __init__(
        self,
        upper: float,
        baseline: float,
        rounds: int = 40,
        improvement_rtol: float = 1e-12,
        geometric_decades: int = 12,
    ) -> None:
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if geometric_decades < 0:
            raise ValueError(
                f"geometric_decades must be >= 0, got {geometric_decades}"
            )
        self.upper = upper
        self.baseline = baseline
        self.improvement_rtol = improvement_rtol
        self.geometric_decades = geometric_decades
        self.evaluations = 0
        self._rounds_left = rounds
        self._swept = False
        self._result: Optional[LineSearchResult] = None
        if upper <= 0.0 or not np.isfinite(baseline):
            self._result = LineSearchResult(
                step=0.0, value=baseline, evaluations=0,
                step_bound=max(upper, 0.0),
            )

    @property
    def finished(self) -> bool:
        """True once the search has produced its result."""
        return self._result is not None

    def sweep_steps(self) -> Optional[np.ndarray]:
        """Steps of the geometric pre-sweep, or ``None`` when finished."""
        if self._result is not None or self._swept:
            return None
        # Geometric sweep: the endpoint plus ``upper * 10^-k`` probes,
        # all in one batched evaluation.
        self._probes = float(self.upper) * 10.0 ** (
            -np.arange(self.geometric_decades + 1, dtype=float)
        )
        return self._probes

    def observe_sweep(self, probe_values: np.ndarray) -> None:
        """Record the sweep's values and bracket the best probe."""
        self.evaluations += len(probe_values)
        best_index = int(np.argmin(probe_values))
        best_step = float(self._probes[best_index])
        best_value = float(probe_values[best_index])
        if best_value >= self.baseline:
            best_step, best_value = 0.0, float(self.baseline)
        self.best_step = best_step
        self.best_value = best_value
        # Local trisection refinement in a bracket around the best probe
        # (the whole interval when the sweep found nothing better than 0).
        if best_step > 0.0:
            self._lo = best_step * 0.1
            self._hi = min(best_step * 10.0, float(self.upper))
        else:
            self._lo, self._hi = 0.0, float(self.upper)
        self._swept = True

    def round_steps(self) -> Optional[np.ndarray]:
        """The next refinement round's ``[m1, m2]``, or ``None`` when
        done."""
        if self._result is not None or not self._swept:
            return None
        width = self._hi - self._lo
        if self._rounds_left <= 0 or width <= max(
            1e-15, 1e-12 * self.upper
        ):
            self._finish()
            return None
        self._rounds_left -= 1
        self._m1 = self._lo + width / 3.0
        self._m2 = self._hi - width / 3.0
        return np.array([self._m1, self._m2])

    def observe_round(self, v1: float, v2: float) -> None:
        """Record one round's two probe values and shrink the bracket."""
        self.evaluations += 2
        if v1 < self.best_value:
            self.best_step, self.best_value = self._m1, float(v1)
        if v2 < self.best_value:
            self.best_step, self.best_value = self._m2, float(v2)
        # Conservative: drop only the one third on the losing side.
        if v1 <= v2:
            self._hi = self._m2
        else:
            self._lo = self._m1

    def _finish(self) -> None:
        threshold = self.baseline - self.improvement_rtol * max(
            1.0, abs(self.baseline)
        )
        if self.best_value >= threshold:
            self._result = LineSearchResult(
                step=0.0, value=self.baseline,
                evaluations=self.evaluations, step_bound=self.upper,
            )
        else:
            self._result = LineSearchResult(
                step=self.best_step, value=self.best_value,
                evaluations=self.evaluations, step_bound=self.upper,
            )

    def snapshot(self) -> dict:
        """JSON-plain snapshot of the search's exact position.

        Captures everything the decision arithmetic depends on — the
        bracket, the incumbent, the remaining round budget, and (between
        :meth:`sweep_steps` and :meth:`observe_sweep`) the pending probe
        grid — so :meth:`restore` continues the search bit-identically.
        Floats survive the JSON round trip exactly.
        """
        payload = {
            "upper": float(self.upper),
            "baseline": float(self.baseline),
            "improvement_rtol": float(self.improvement_rtol),
            "geometric_decades": int(self.geometric_decades),
            "evaluations": int(self.evaluations),
            "rounds_left": int(self._rounds_left),
            "swept": bool(self._swept),
        }
        if getattr(self, "_probes", None) is not None:
            payload["probes"] = np.asarray(self._probes).tolist()
        if self._swept:
            payload["best_step"] = float(self.best_step)
            payload["best_value"] = float(self.best_value)
            payload["lo"] = float(self._lo)
            payload["hi"] = float(self._hi)
        if self._result is not None:
            payload["result"] = {
                "step": self._result.step,
                "value": self._result.value,
                "evaluations": self._result.evaluations,
                "step_bound": self._result.step_bound,
            }
        return payload

    @classmethod
    def restore(cls, snapshot: dict) -> "TrisectionState":
        """Rebuild a search from a :meth:`snapshot` payload."""
        search = cls(
            upper=snapshot["upper"],
            baseline=snapshot["baseline"],
            rounds=max(int(snapshot["rounds_left"]), 1),
            improvement_rtol=snapshot["improvement_rtol"],
            geometric_decades=snapshot["geometric_decades"],
        )
        search._rounds_left = int(snapshot["rounds_left"])
        search.evaluations = int(snapshot["evaluations"])
        search._swept = bool(snapshot["swept"])
        if "probes" in snapshot:
            search._probes = np.asarray(snapshot["probes"], dtype=float)
        if search._swept:
            search.best_step = snapshot["best_step"]
            search.best_value = snapshot["best_value"]
            search._lo = snapshot["lo"]
            search._hi = snapshot["hi"]
        stored = snapshot.get("result")
        if stored is not None:
            search._result = LineSearchResult(**stored)
        elif search._result is not None:
            # The constructor may have finished an infeasible search the
            # snapshot still considered open; honor the snapshot.
            search._result = None
        return search

    def result(
        self, evaluations: Optional[int] = None
    ) -> LineSearchResult:
        """The search outcome (finalizing a still-open bracket first).

        ``evaluations`` overrides the recorded count —
        :func:`trisection_search` uses it to also charge a baseline
        evaluation it may have performed before the state was built.
        """
        if self._result is None:
            self._finish()
        if evaluations is not None and (
            evaluations != self._result.evaluations
        ):
            self._result = LineSearchResult(
                step=self._result.step, value=self._result.value,
                evaluations=evaluations,
                step_bound=self._result.step_bound,
            )
        return self._result


def trisection_search(
    objective: Optional[Callable[[float], float]] = None,
    upper: float = 0.0,
    baseline: Optional[float] = None,
    rounds: int = 40,
    improvement_rtol: float = 1e-12,
    geometric_decades: int = 12,
    batch_objective: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> LineSearchResult:
    """Minimize the ray objective over ``[0, upper]``.

    A thin driver over :class:`TrisectionState`: each stage's probes are
    fed to the (preferably batched) objective and the values handed
    back, so this single-ray path and the lockstep multi-ray path share
    the exact step-selection arithmetic.

    Parameters
    ----------
    objective:
        Scalar ``d -> U(P + d V)``.  Optional when ``batch_objective`` is
        given.
    upper:
        Feasibility bound on the step; ``<= 0`` returns a zero step.
    baseline:
        ``U`` at ``d = 0``; computed from the objective when omitted.
    rounds:
        Trisection refinements.  Each round keeps 2/3 of the interval.
    improvement_rtol:
        The best point must beat the baseline by more than
        ``improvement_rtol * max(1, |baseline|)`` to count; otherwise the
        search reports ``step = 0`` (no improving step: a local optimum
        along this ray).
    geometric_decades:
        Number of pre-sweep probes at ``upper * 10^-k``.
    batch_objective:
        Vectorized ``d-array -> U-array``; preferred when available.
    """
    evaluator = _RayEvaluator(objective, batch_objective)
    if baseline is None:
        baseline = float(evaluator([0.0])[0])
    search = TrisectionState(
        upper=upper, baseline=baseline, rounds=rounds,
        improvement_rtol=improvement_rtol,
        geometric_decades=geometric_decades,
    )
    probes = search.sweep_steps()
    if probes is not None:
        search.observe_sweep(evaluator(probes))
        while True:
            pair = search.round_steps()
            if pair is None:
                break
            v1, v2 = evaluator(pair)
            search.observe_round(v1, v2)
    return search.result(evaluations=evaluator.evaluations)
