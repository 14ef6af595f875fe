"""Lockstep multi-start: all trajectories advance one iteration at a time.

``optimize_multistart`` runs its portfolio starts one after another (or
farms whole starts out to an executor); each start's line search then
issues its own stacked linear-algebra calls.  For the paper's matrix
sizes the per-call dispatch overhead (Python bookkeeping, LAPACK setup)
is a large fraction of each call, so fusing the *same stage* of every
start's line search into one taller stacked call is markedly faster on a
single core — same arithmetic, fewer round trips.

This driver advances every start's
:class:`~repro.core.perturbed.PerturbedWalk` in lockstep.  Per descent
iteration: every active walk computes its (noisy) direction, then all
line searches run their geometric sweep in **one**
:meth:`~repro.core.cost.CoverageCost.batch_evaluate` via
:class:`~repro.core.cost.MultiRayBatch`, then each trisection round
likewise, then all random fallback probes.  Bit-identity with the serial
path holds by construction:

* each walk draws from its own pre-spawned RNG stream in exactly the
  serial order (noise, fallback step, acceptance test — the last
  short-circuited for non-worsening moves);
* step selection runs through the shared
  :class:`~repro.core.linesearch.TrisectionState` and each ray's
  :meth:`~repro.core.cost.RayBatch._observe` winner rule, which are the
  very code the serial path executes;
* the dense ``batch_evaluate`` treats stack members independently, so
  fused probe values equal single-ray values bitwise; support-value
  probes (the sparse path) share a stationary solve's refinement
  reference within a stack, so :class:`~repro.core.cost.MultiRayBatch`
  evaluates them one ray per call, which is the single-ray evaluation.

Equivalence is tested per start, per iteration in
``tests/core/test_lockstep.py``; the speedup is measured by
``benchmarks/perf/bench_rays.py``.

Per-run :class:`~repro.utils.perf.OptimizerPerf` counters are attributed
as the serial path would have recorded them (one ``batch_call`` per walk
per fused stage it participated in), so a run's "factorizations per
accepted step" budget stays comparable across drivers.  ``seconds`` is
the driver wall time elapsed when that walk finished — walks interleave,
so per-run times are not additive.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import fields
from typing import List, Optional, Sequence

import numpy as np

from repro.core.cost import CoverageCost, MultiRayBatch
from repro.core.linesearch import TrisectionState
from repro.core.multistart import (
    DEFAULT_DELTA_GRID,
    MultiStartResult,
    default_start_portfolio,
)
from repro.core.perturbed import PerturbedOptions, PerturbedWalk
from repro.utils import perf
from repro.utils.rng import RandomState, as_generator, spawn_generators


class _Slot:
    """Driver bookkeeping for one walk: counters and per-stage scratch."""

    __slots__ = ("walk", "counters", "spec", "seconds")

    def __init__(
        self, walk: PerturbedWalk, counters: perf.PerfCounters
    ) -> None:
        self.walk = walk
        self.counters = counters
        self.spec = None
        self.seconds: Optional[float] = None


@contextmanager
def _measured(counters: perf.PerfCounters):
    """Run a per-walk serial section, folding its counts into ``counters``.

    Nested scopes accumulate into any ambient outer scope too, so an
    experiment-level ``perf_scope`` around the whole lockstep run still
    sees the true totals.
    """
    with perf.perf_scope() as delta:
        yield
    for field in fields(perf.PerfCounters):
        amount = getattr(delta, field.name)
        if amount:
            counters.add(field.name, amount)


def _fused_values(batch, steps_per_ray, slots) -> List[Optional[np.ndarray]]:
    """One fused line-search stage; sanitized values per participating ray.

    Mirrors ``_RayEvaluator``'s handling on the serial path: non-finite
    probe values become ``inf`` before the search sees them.  Attributes
    one serial-equivalent ``batch_call`` to each participating walk.
    """
    with np.errstate(all="ignore"):
        values = batch.evaluate(steps_per_ray)
    out: List[Optional[np.ndarray]] = []
    for slot, steps, vals in zip(slots, steps_per_ray, values):
        if vals is None:
            out.append(None)
            continue
        vals = np.asarray(vals, dtype=float)
        vals[~np.isfinite(vals)] = np.inf
        slot.counters.add("batch_calls")
        slot.counters.add("batch_matrices", int(np.asarray(steps).size))
        out.append(vals)
    return out


def _fused_probes(batch, step_per_ray, slots) -> List[Optional[tuple]]:
    """All walks' random fallback probes in one stacked call."""
    if all(step is None for step in step_per_ray):
        return [None] * len(step_per_ray)
    with np.errstate(all="ignore"):
        probes = batch.probe_states(step_per_ray)
    for slot, step, probe in zip(slots, step_per_ray, probes):
        if step is None:
            continue
        slot.counters.add("batch_calls")
        slot.counters.add("batch_matrices", 1)
        if probe is not None and probe[1] is not None:
            slot.counters.add("states_reused")
    return probes


def lockstep_multistart(
    cost: CoverageCost,
    random_starts: int = 3,
    delta_grid: Sequence[float] = DEFAULT_DELTA_GRID,
    seed: RandomState = None,
    options: Optional[PerturbedOptions] = None,
) -> MultiStartResult:
    """Run the perturbed multi-start with all starts fused in lockstep.

    Seeding is identical to :func:`~repro.core.multistart.
    optimize_multistart`: the portfolio is drawn first from ``seed``,
    then each start gets its own spawned stream — so every returned run
    (trajectory, history, best matrix) is bit-identical to the serial
    driver's, only faster.  Supports the default perturbed optimizer
    only: the fused stages are its walks' trisection line searches.
    """
    options = options or PerturbedOptions()
    started = time.perf_counter()
    rng = as_generator(seed)
    starts = default_start_portfolio(
        cost, random_starts=random_starts, delta_grid=delta_grid, seed=rng
    )
    streams = spawn_generators(rng, len(starts))

    slots = []
    for (_, matrix), stream in zip(starts, streams):
        counters = perf.PerfCounters()
        with _measured(counters):
            walk = PerturbedWalk(cost, matrix, stream, options)
        slots.append(_Slot(walk, counters))

    while True:
        active = [slot for slot in slots if not slot.walk.finished]
        if not active:
            break

        for slot in active:
            with _measured(slot.counters):
                slot.spec = slot.walk.begin_iteration()

        batch = MultiRayBatch(cost, [slot.spec.ray for slot in active])
        searches = [
            TrisectionState(
                upper=slot.spec.bound,
                baseline=slot.spec.baseline,
                rounds=options.trisection_rounds,
                improvement_rtol=options.rtol,
                geometric_decades=options.geometric_decades,
            )
            for slot in active
        ]

        # Stage 1: every search's geometric sweep, one stacked call.
        sweeps = [search.sweep_steps() for search in searches]
        values = _fused_values(batch, sweeps, active)
        for search, vals in zip(searches, values):
            if vals is not None:
                search.observe_sweep(vals)

        # Stage 2: trisection rounds in lockstep until every search is
        # done (finished searches sit out with ``None``).
        while True:
            pairs = [search.round_steps() for search in searches]
            if all(pair is None for pair in pairs):
                break
            values = _fused_values(batch, pairs, active)
            for search, vals in zip(searches, values):
                if vals is not None:
                    search.observe_round(vals[0], vals[1])

        # Stage 3: step choices, then all random fallback probes fused.
        fallbacks = [
            slot.walk.choose_step(search.result())
            for slot, search in zip(active, searches)
        ]
        probes = _fused_probes(batch, fallbacks, active)

        for slot, ray, probe in zip(active, batch.rays, probes):
            with _measured(slot.counters):
                slot.walk.complete_iteration(ray, probe)
            if slot.walk.finished and slot.seconds is None:
                slot.seconds = time.perf_counter() - started

    total = time.perf_counter() - started
    runs = [
        slot.walk.result(
            run_perf=perf.OptimizerPerf.from_counters(
                slot.counters,
                accepted_steps=slot.walk.accepted_steps,
                accept_factorizations=slot.walk.accept_factorizations,
                seconds=slot.seconds if slot.seconds is not None else total,
            )
        )
        for slot in slots
    ]
    labels = [label for label, _ in starts]
    best = min(runs, key=lambda run: run.best_u_eps)
    return MultiStartResult(best=best, runs=runs, start_labels=labels)
