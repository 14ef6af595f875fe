"""Reference line search: one trisection round per batched call.

:func:`repro.core.linesearch.trisection_search` evaluates a ray's next
few trisection rounds in one call (every bracket those rounds can
reach, see :func:`repro.core.cost.speculative_rounds`) and replays the
rounds on the values.  This oracle is the driver before that: the
geometric sweep, then one ``[m1, m2]`` call per round, each observed
whole by the ray.  Both run the same
:class:`~repro.core.linesearch.TrisectionState` decisions, so every
:class:`~repro.core.linesearch.LineSearchResult`, every winner a ray
hands back (:meth:`~repro.core.cost.RayBatch.state_at`) and every
trajectory must be the oracle's bit for bit; only the batch counters
differ.  ``tests/core/test_speculative_linesearch.py`` holds the driver
to it on generated rays, and ``benchmarks/perf/bench_rays.py
--check-only`` on a seeded walk (:func:`optimize_perturbed`).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.core.linesearch import LineSearchResult, TrisectionState
from repro.core.perturbed import PerturbedOptions, PerturbedWalk
from repro.utils import perf


def trisection_search(
    objective: Optional[Callable[[float], float]] = None,
    upper: float = 0.0,
    baseline: Optional[float] = None,
    rounds: int = 40,
    improvement_rtol: float = 1e-12,
    geometric_decades: int = 12,
    batch_objective: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> LineSearchResult:
    """:func:`repro.core.linesearch.trisection_search`, one round per
    call of the (batched or scalar) objective."""
    if objective is None and batch_objective is None:
        raise ValueError("provide objective or batch_objective")
    evaluations = 0

    def evaluate(steps) -> np.ndarray:
        nonlocal evaluations
        steps = np.asarray(steps, dtype=float)
        evaluations += steps.size
        if batch_objective is not None:
            with np.errstate(all="ignore"):
                values = np.asarray(batch_objective(steps), dtype=float)
            values[~np.isfinite(values)] = np.inf
            return values
        values = np.empty(steps.size)
        for index, step in enumerate(steps):
            try:
                value = float(objective(float(step)))
            except (ValueError, np.linalg.LinAlgError, FloatingPointError):
                value = np.inf
            values[index] = value if np.isfinite(value) else np.inf
        return values

    if baseline is None:
        baseline = float(evaluate([0.0])[0])
    search = TrisectionState(
        upper=upper, baseline=baseline, rounds=rounds,
        improvement_rtol=improvement_rtol,
        geometric_decades=geometric_decades,
    )
    probes = search.sweep_steps()
    if probes is not None:
        search.observe_sweep(evaluate(probes))
        while True:
            pair = search.round_steps()
            if pair is None:
                break
            v1, v2 = evaluate(pair)
            search.observe_round(v1, v2)
    return search.result(evaluations=evaluations)


def advance_walk(cost, walk: PerturbedWalk, options) -> bool:
    """:func:`repro.core.perturbed.advance_walk` with this module's
    one-round-per-call search."""
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


def optimize_perturbed(cost, initial=None, seed=None, options=None):
    """One whole walk driven by :func:`advance_walk`, per-run perf
    attached as :func:`repro.core.perturbed.optimize_perturbed` does."""
    options = options or PerturbedOptions()
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
