"""Lightweight performance counters for the linear-algebra hot path.

The optimizer's cost is dominated by dense ``O(M^3)`` work: factorizing
``(I - P + W)`` and solving the stationary system for every
:class:`~repro.core.state.ChainState`, plus the stacked solves of the
batched line search.  This module counts that work so regressions in the
"factorizations per step" budget are measurable rather than anecdotal
(see ``docs/performance.md`` for the counter semantics).

Counting is scope-based: any code can open a :func:`perf_scope`, and all
counters incremented while the scope is active accumulate into it.
Scopes nest; increments go to every scope active in the *current
context* (a :mod:`contextvars` variable), so concurrent runs in
different threads or asyncio tasks each count only their own work.
:class:`~repro.exec.executor.ThreadExecutor` runs every task in a copy
of the submitter's context, so a scope around a thread fan-out still
sees the workers' counts.  Worker *processes* have their own module
state, so process-parallel runs report per-run counters via the
:class:`OptimizerPerf` attached to each
:class:`~repro.core.result.OptimizationResult` (which travels back
through pickling) rather than via an ambient scope.

With no active scope every hook is a cheap no-op.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields


@dataclass(eq=False)
class PerfCounters:
    """Tallies of the expensive operations.

    ``factorizations`` counts *scalar* dense decompositions (one LU or
    linear solve of a single ``M x M`` system).  Batched line-search
    work is tracked separately: ``batch_calls`` stacked evaluations
    covering ``batch_matrices`` matrices in total (each batched matrix
    costs one stacked solve plus one stacked inversion, but never a
    per-matrix Python round trip).  The sparse path counts its own
    work: ``sparse_factorizations`` counts every sparse LU (each
    ``splu`` call in :mod:`repro.markov.sparse`): one per sparse chain
    state, plus a line-search probe's own factorization when
    refinement against its ray's base misses (the template-free markov
    primitives count theirs too).
    ``incremental_updates`` and ``incremental_refactorizations`` count
    the low-rank updates and resets of
    :class:`~repro.markov.incremental.IncrementalCoreTracker`, which no
    optimizer path uses; they stay zero in every run.  The process
    backend adds ``dispatch_bytes``/``dispatch_seconds`` for payloads
    sent and ``result_bytes`` for payloads collected.

    ``eq=False``: each instance is one scope's live accumulator, so two
    scopes with equal tallies must still compare (and hash) apart.
    """

    factorizations: int = 0
    state_builds: int = 0
    states_reused: int = 0
    batch_calls: int = 0
    batch_matrices: int = 0
    executor_tasks: int = 0
    executor_task_seconds: float = 0.0
    sparse_factorizations: int = 0
    incremental_updates: int = 0
    incremental_refactorizations: int = 0
    dispatch_bytes: int = 0
    dispatch_seconds: float = 0.0
    result_bytes: int = 0

    def add(self, name: str, amount=1) -> None:
        """Increment counter ``name`` by ``amount``."""
        setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> "PerfCounters":
        """An independent copy of the current tallies."""
        return PerfCounters(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )


# One lock for all increments: copied contexts share their scopes'
# counters, so worker threads of one fan-out add to the same objects.
_lock = threading.Lock()
_active: ContextVar = ContextVar("perf_scopes", default=())


def count(name: str, amount=1) -> None:
    """Add ``amount`` to counter ``name`` in every active scope."""
    scopes = _active.get()
    if not scopes:
        return
    with _lock:
        for counters in scopes:
            counters.add(name, amount)


@contextmanager
def perf_scope():
    """Collect counters for the duration of the ``with`` block.

    Yields the live :class:`PerfCounters`; read it inside or after the
    block.  Scopes nest: increments are applied to every active scope,
    so an outer experiment scope sees the sum over inner optimizer
    scopes.
    """
    counters = PerfCounters()
    token = _active.set(_active.get() + (counters,))
    try:
        yield counters
    finally:
        _active.reset(token)


@dataclass
class OptimizerPerf:
    """Per-run hot-path statistics attached to an OptimizationResult.

    ``accept_factorizations`` counts the *scalar* factorizations spent
    constructing accepted candidates' states — zero when the line
    search's winning probe is handed back instead of rebuilt.  The
    derived :meth:`factorizations_per_accepted_step` adds one for the
    batched line-search evaluation that produced each accepted
    candidate, so the historical rebuild-from-scratch behavior scores 3
    (batch + stationary solve + fundamental LU) and the sharing path
    scores 1.

    ``dispatch_bytes`` / ``dispatch_seconds`` account serialization of
    task payloads on the submitting side of the process backend (see
    :class:`repro.exec.executor.TaskTimings`).  They are zero for runs
    inside a worker — dispatch is paid by the parent, so they show up
    in ambient :func:`perf_scope` counters around a fan-out (and in the
    dispatch benchmark's output), not in the per-run perf attached to
    each result.  ``sparse_factorizations`` carries over from
    :class:`PerfCounters` unchanged: every sparse LU the run made,
    line-search probes included (zero on the dense path).
    """

    factorizations: int = 0
    state_builds: int = 0
    states_reused: int = 0
    batch_calls: int = 0
    batch_matrices: int = 0
    accepted_steps: int = 0
    accept_factorizations: int = 0
    seconds: float = 0.0
    dispatch_bytes: int = 0
    dispatch_seconds: float = 0.0
    sparse_factorizations: int = 0

    @classmethod
    def from_counters(cls, counters: PerfCounters, **extra):
        """Build from a scope's counters plus optimizer-level fields."""
        return cls(
            factorizations=counters.factorizations,
            state_builds=counters.state_builds,
            states_reused=counters.states_reused,
            batch_calls=counters.batch_calls,
            batch_matrices=counters.batch_matrices,
            dispatch_bytes=counters.dispatch_bytes,
            dispatch_seconds=counters.dispatch_seconds,
            sparse_factorizations=counters.sparse_factorizations,
            **extra,
        )

    def factorizations_per_accepted_step(self) -> float:
        """Average dense factorizations charged per accepted step."""
        if self.accepted_steps == 0:
            return 0.0
        return self.accept_factorizations / self.accepted_steps + 1.0
