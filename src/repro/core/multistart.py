"""Multi-start optimization driver.

The solution space contains many local optima (Section VI-A), and for
extreme weightings (e.g. ``beta -> 0``) the global basin is a narrow
funnel near a corner of the transition polytope that neither random
initialization nor gradient noise reaches reliably.  The standard
practitioner remedy — and the one our experiment harness uses for the
Table I/II weight sweeps — is a multi-start: run the perturbed
optimizer from a portfolio of initial matrices covering qualitatively
different schedule regimes and keep the best result.

The default portfolio:

* the uniform matrix (V1's start),
* ``random_starts`` paper-recipe random matrices (V2's start),
* a geometric grid of damped-baseline matrices
  ``(1 - delta) I + delta 1 phi^T`` spanning fast- to slow-moving
  schedules (see
  :func:`repro.core.initializers.damped_baseline_matrix`).

On a dense cost, in process, the starts run in **lockstep**: every
start's :class:`~repro.core.perturbed.PerturbedWalk` advances one
descent iteration at a time, and the same line-search stage of every
walk (geometric sweep, each trisection round, the random fallback
probes) runs as **one** :meth:`~repro.core.cost.CoverageCost.
batch_evaluate` through :class:`~repro.core.cost.MultiRayBatch`.  For
the paper's matrix sizes per-call dispatch overhead is a large fraction
of each stacked call, so one taller call per stage is markedly faster
than the starts one after another — same arithmetic, fewer round
trips.  A sparse cost's probes are support values refined against their
own ray's base state, one call per ray, so fusing buys nothing: its
starts run one whole :func:`~repro.core.perturbed.optimize_perturbed`
walk after another on every executor, serial included, and only one
walk's state is alive at once.

Every run is bit-identical to
:func:`~repro.core.perturbed.optimize_perturbed` from the same start
and stream (tested in ``tests/core/test_lockstep.py`` against the
per-start loop in ``tests/oracles/multistart.py``):

* each walk draws from its own pre-spawned RNG stream in exactly the
  single-walk order (noise, fallback step, acceptance test — the last
  short-circuited for non-worsening moves);
* step selection runs through the shared
  :class:`~repro.core.linesearch.TrisectionState` and each ray's
  :meth:`~repro.core.cost.RayBatch._observe` winner rule, the very code
  :func:`~repro.core.linesearch.trisection_search` executes;
* the dense ``batch_evaluate`` treats stack members independently, so
  fused probe values equal single-ray values bitwise.

Per-run :class:`~repro.utils.perf.OptimizerPerf` counters are the ones
a lone walk records (one ``batch_call`` per walk per fused stage it
took part in), so the "factorizations per accepted step" budget stays
comparable; an ambient :func:`~repro.utils.perf.perf_scope` around the
whole multi-start sees the fused calls instead.  A lockstep run's
``seconds`` is the wall time from the start of the lockstep loop to the
iteration it finished in.

Any other executor (``thread``, ``process``, or an instance) gets one
task per start, each a whole :func:`optimize_perturbed` walk.

This module is an extension beyond the paper's Section V variants; it is
documented as such in DESIGN.md and exercised by the ablation benchmarks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

import numpy as np

from repro.core.cost import CoverageCost, MultiRayBatch
from repro.core.initializers import (
    damped_baseline_matrix,
    paper_random_matrix,
    uniform_matrix,
)
from repro.core.linesearch import TrisectionState
from repro.core.perturbed import (
    AdaptiveOptions,
    PerturbedOptions,
    PerturbedWalk,
    optimize_perturbed,
)
from repro.core.result import OptimizationResult
from repro.exec import SerialExecutor, executor_scope
from repro.utils import perf
from repro.utils.rng import RandomState, as_generator, spawn_generators

#: Default damping grid: fast (1.0) down to nearly frozen schedules.
DEFAULT_DELTA_GRID = (1.0, 0.3, 0.1, 0.03, 0.01, 0.003)


@dataclass
class MultiStartResult:
    """Best run plus the full per-start results for diagnostics."""

    best: OptimizationResult
    runs: List[OptimizationResult]
    start_labels: List[str]

    @property
    def best_label(self) -> str:
        """Label of the start that produced the best run."""
        index = int(
            np.argmin([run.best_u_eps for run in self.runs])
        )
        return self.start_labels[index]


def default_start_portfolio(
    cost: CoverageCost,
    random_starts: int = 3,
    delta_grid: Sequence[float] = DEFAULT_DELTA_GRID,
    seed: RandomState = None,
):
    """Build the default ``(label, matrix)`` start list for ``cost``."""
    rng = as_generator(seed)
    size = cost.size
    support = cost.support
    phi = cost.topology.target_shares
    starts = [("uniform", uniform_matrix(size, support=support))]
    for index in range(random_starts):
        starts.append(
            (
                f"random-{index}",
                paper_random_matrix(size, seed=rng, support=support),
            )
        )
    if np.all(phi > 0):
        epsilon = cost.weights.epsilon
        for delta in delta_grid:
            # Keep every entry of delta * phi above the barrier band.
            if delta * phi.min() <= epsilon:
                continue
            starts.append(
                (
                    f"damped-{delta:g}",
                    damped_baseline_matrix(phi, delta, support=support),
                )
            )
    return starts


def _run_start(task) -> OptimizationResult:
    """One portfolio start; module-level so it pickles for processes."""
    cost, matrix, rng, options = task
    return optimize_perturbed(cost, initial=matrix, seed=rng, options=options)


class _Slot:
    """Driver bookkeeping for one walk: its counters and finish time."""

    __slots__ = ("walk", "counters", "seconds")

    def __init__(
        self, walk: PerturbedWalk, counters: perf.PerfCounters
    ) -> None:
        self.walk = walk
        self.counters = counters
        self.seconds = 0.0


_COUNTER_NAMES = tuple(field.name for field in fields(perf.PerfCounters))


@contextmanager
def _measured(counters: perf.PerfCounters):
    """Run a per-walk section, folding its counts into ``counters``.

    Nested scopes accumulate into any ambient outer scope too, so an
    experiment-level ``perf_scope`` around the whole multi-start still
    sees the true totals.
    """
    with perf.perf_scope() as delta:
        yield
    for name in _COUNTER_NAMES:
        amount = getattr(delta, name)
        if amount:
            counters.add(name, amount)


def _fused_values(batch, steps_per_ray, slots) -> List[Optional[np.ndarray]]:
    """One fused line-search stage; sanitized values per participating ray.

    Mirrors ``_RayEvaluator``'s handling in the single-walk search:
    non-finite probe values become ``inf`` before the search sees them.
    Attributes one single-walk ``batch_call`` to each participating walk.
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


def _iterate(
    cost: CoverageCost, slots: Sequence[_Slot], options: PerturbedOptions
) -> None:
    """One descent iteration of every walk in ``slots``, stages fused.

    A function of its own so the iteration's rays, probes and searches
    are released before the next iteration's gradients are computed, as
    they are between two :func:`~repro.core.perturbed.advance_walk`
    calls.
    """
    specs = []
    for slot in slots:
        with _measured(slot.counters):
            specs.append(slot.walk.begin_iteration())

    batch = MultiRayBatch(cost, [spec.ray for spec in specs])
    searches = [
        TrisectionState(
            upper=spec.bound,
            baseline=spec.baseline,
            rounds=options.trisection_rounds,
            improvement_rtol=options.rtol,
            geometric_decades=options.geometric_decades,
        )
        for spec in specs
    ]

    # Stage 1: every search's geometric sweep, one stacked call.
    sweeps = [search.sweep_steps() for search in searches]
    values = _fused_values(batch, sweeps, slots)
    for search, vals in zip(searches, values):
        if vals is not None:
            search.observe_sweep(vals)

    # Stage 2: trisection rounds in lockstep until every search is
    # done (finished searches sit out with ``None``).
    while True:
        pairs = [search.round_steps() for search in searches]
        if all(pair is None for pair in pairs):
            break
        values = _fused_values(batch, pairs, slots)
        for search, vals in zip(searches, values):
            if vals is not None:
                search.observe_round(vals[0], vals[1])

    # Stage 3: step choices, then all random fallback probes fused.
    fallbacks = [
        slot.walk.choose_step(search.result())
        for slot, search in zip(slots, searches)
    ]
    probes = _fused_probes(batch, fallbacks, slots)

    for slot, ray, probe in zip(slots, batch.rays, probes):
        with _measured(slot.counters):
            slot.walk.complete_iteration(ray, probe)


def _run_lockstep(
    cost: CoverageCost,
    matrices: Sequence[np.ndarray],
    streams: Sequence[np.random.Generator],
    options: PerturbedOptions,
) -> List[OptimizationResult]:
    """Advance one walk per ``(matrix, stream)`` of a dense cost in
    lockstep to the end."""
    started = time.perf_counter()
    slots = []
    for matrix, stream in zip(matrices, streams):
        counters = perf.PerfCounters()
        with _measured(counters):
            walk = PerturbedWalk(cost, matrix, stream, options)
        slots.append(_Slot(walk, counters))

    active = [slot for slot in slots if not slot.walk.finished]
    while active:
        _iterate(cost, active, options)
        elapsed = time.perf_counter() - started
        for slot in active:
            if slot.walk.finished:
                slot.seconds = elapsed
        active = [slot for slot in active if not slot.walk.finished]

    return [
        slot.walk.result(
            run_perf=perf.OptimizerPerf.from_counters(
                slot.counters,
                accepted_steps=slot.walk.accepted_steps,
                accept_factorizations=slot.walk.accept_factorizations,
                seconds=slot.seconds,
            )
        )
        for slot in slots
    ]


def optimize_multistart(
    cost: CoverageCost,
    random_starts: int = 3,
    delta_grid: Sequence[float] = DEFAULT_DELTA_GRID,
    seed: RandomState = None,
    options: Optional[PerturbedOptions] = None,
    executor=None,
    transport=None,
) -> MultiStartResult:
    """Run the perturbed optimizer from every portfolio start; keep the
    best.

    The starts are independent: the portfolio is drawn first from
    ``seed``, then each start gets its own spawned RNG stream, so every
    run is bit-identical to :func:`optimize_perturbed` from that start
    and stream, whoever runs it.

    ``executor`` is resolved with
    :func:`~repro.exec.executor.executor_scope` (``None`` means the
    process-wide default; one built from a backend name is closed
    before this returns).  A serial executor runs the starts in
    process, in lockstep when ``cost`` is dense (see the module
    docstring); any other backend name or
    :class:`~repro.exec.executor.Executor` instance, and any executor
    for a sparse cost, runs one :func:`optimize_perturbed` task per
    start.  ``transport`` selects the process backend's payload
    transport (``"pickle"`` | ``"shm"`` | ``"auto"``, see
    :mod:`repro.exec.shm`) when this call constructs the backend from a
    name.  Results are bit-identical across
    executors and transports.  ``options`` must be a trisection class
    (:class:`AdaptiveOptions` or :class:`PerturbedOptions`); any other
    raises :class:`TypeError`.
    """
    options = options or PerturbedOptions()
    if not isinstance(options, (AdaptiveOptions, PerturbedOptions)):
        raise TypeError(
            "optimize_multistart runs trisection walks: options must be "
            "AdaptiveOptions or PerturbedOptions, got "
            f"{type(options).__name__}"
        )
    rng = as_generator(seed)
    starts = default_start_portfolio(
        cost, random_starts=random_starts, delta_grid=delta_grid, seed=rng
    )
    streams = spawn_generators(rng, len(starts))
    labels = [label for label, _ in starts]
    matrices = [matrix for _, matrix in starts]
    del starts
    with executor_scope(executor, transport=transport) as runner:
        if (
            isinstance(runner, SerialExecutor)
            and cost._probe_template() is None
        ):
            runs = _run_lockstep(cost, matrices, streams, options)
        else:
            runs = runner.map(
                _run_start,
                [
                    (cost, matrix, stream, options)
                    for matrix, stream in zip(matrices, streams)
                ],
            )
    best = min(runs, key=lambda run: run.best_u_eps)
    return MultiStartResult(best=best, runs=runs, start_labels=labels)
