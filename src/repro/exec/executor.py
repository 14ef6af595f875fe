"""Pluggable execution backends for embarrassingly parallel drivers.

Every multi-run axis in the experiment stack — independent seeds in
``run_many``, the start portfolio in ``optimize_multistart``, repeated
simulations in ``simulate_repeatedly`` — is a pure fan-out: each task
receives its own pre-spawned RNG stream (see
:func:`repro.utils.rng.spawn_generators`) and touches no shared state.
This module provides the executors that run such fan-outs:

* ``serial`` — a plain loop, the default; zero overhead and the
  reference behavior.
* ``thread`` — :class:`concurrent.futures.ThreadPoolExecutor`; useful
  when the work releases the GIL (BLAS-heavy tasks) or for I/O.
* ``process`` — :class:`concurrent.futures.ProcessPoolExecutor`; the
  scaling backend for CPU-bound optimization.  Task functions and
  payloads must be picklable (module-level functions; the library's
  topologies, costs, options, and ``numpy`` generators all are).

Determinism is the executors' contract: ``map`` preserves input order
and each task's randomness comes exclusively from its payload, so all
three backends produce **bit-identical** results for the same seed (the
test suite enforces this).

A process-wide *default executor* can be installed
(:func:`set_default_executor` / :func:`using_executor`); drivers resolve
``executor=None`` against it, which is how the CLI's ``--jobs`` flag
reaches every experiment without threading a parameter through each
call chain.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from contextlib import contextmanager
from contextvars import copy_context
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.utils import perf

#: Names accepted by :func:`get_executor` and the CLI ``--backend`` flag.
BACKENDS = ("serial", "thread", "process")

#: Transport modes for the process backend (``--transport`` semantics);
#: re-exported from :mod:`repro.exec.shm` for convenience.
TRANSPORTS = ("pickle", "shm", "auto")


@dataclass
class TaskTimings:
    """Wall-clock accounting for one executor's lifetime.

    ``dispatch_bytes`` / ``dispatch_seconds`` cover serialization of
    task payloads on the submitting side — only the process backend
    pays them; serial and thread dispatch is a function call.
    ``result_bytes`` counts the serialized *return* payloads the
    process backend collected (with the shm transport, large result
    arrays travel as one-shot segment handles, so this shrinks the same
    way ``dispatch_bytes`` does — benchmarks report both directions).
    ``broadcast_requests`` / ``broadcast_hits`` fold in the tallies of
    the process backend's shm store (see
    :class:`~repro.exec.shm.SharedTensorStore`) each time it closes.
    """

    tasks: int = 0
    task_seconds: float = 0.0
    max_task_seconds: float = 0.0
    wall_seconds: float = 0.0
    dispatch_bytes: int = 0
    dispatch_seconds: float = 0.0
    result_bytes: int = 0
    broadcast_requests: int = 0
    broadcast_hits: int = 0

    def record_task(self, seconds: float) -> None:
        self.tasks += 1
        self.task_seconds += seconds
        self.max_task_seconds = max(self.max_task_seconds, seconds)

    def record_dispatch(self, nbytes: int, seconds: float) -> None:
        self.dispatch_bytes += nbytes
        self.dispatch_seconds += seconds
        perf.count("dispatch_bytes", nbytes)
        perf.count("dispatch_seconds", seconds)

    def record_result(self, nbytes: int) -> None:
        self.result_bytes += nbytes
        perf.count("result_bytes", nbytes)

    def mean_task_bytes(self) -> float:
        """Average serialized payload size per dispatched task."""
        return self.dispatch_bytes / self.tasks if self.tasks else 0.0


def _timed_call(fn: Callable, item):
    """Run one task, returning ``(result, seconds)``.

    Module-level so ``(fn, item)`` payloads pickle for the process
    backend; the per-task time is measured inside the worker.
    """
    start = time.perf_counter()
    result = fn(item)
    return result, time.perf_counter() - start


def _run_packed(blob: bytes, share_results: bool) -> bytes:
    """Worker entry point for the process backend.

    The parent serializes ``(fn, item)`` itself (plain pickle or the
    shared-memory transport — :func:`repro.exec.shm.unpack` reads
    both), so payload bytes can be accounted and large tensors can
    arrive as segment handles.  The result travels back the same way:
    packed into one byte blob (``share_results`` exports large arrays
    to one-shot segments, see :func:`repro.exec.shm.pack_result`) so
    the parent can account ``result_bytes`` on both transports.
    """
    from repro.exec import shm

    fn, item = shm.unpack(blob)
    return shm.pack_result(_timed_call(fn, item), share=share_results)


class Executor:
    """Base class: ordered ``map`` over independent tasks.

    Subclasses implement :meth:`_run`; ``map`` wraps it with timing
    instrumentation (accumulated on :attr:`timings` and in any active
    :func:`repro.utils.perf.perf_scope`).
    """

    name = "abstract"

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or (os.cpu_count() or 1)
        self.timings = TaskTimings()

    def map(self, fn: Callable, items: Sequence) -> List:
        """Apply ``fn`` to every item; results in input order.

        The first task exception propagates (remaining tasks may be
        cancelled), matching the serial loop's behavior.
        """
        items = list(items)
        start = time.perf_counter()
        pairs = self._run(fn, items)
        self.timings.wall_seconds += time.perf_counter() - start
        results = []
        for result, seconds in pairs:
            self.timings.record_task(seconds)
            perf.count("executor_tasks")
            perf.count("executor_task_seconds", seconds)
            results.append(result)
        return results

    def run_one(self, fn: Callable, item):
        """Apply ``fn`` to a single item through the pool.

        Convenience for callers whose unit of work is one task at a
        time — the service's job runner
        (:mod:`repro.service.runner`) routes each job through here so
        any backend (including the process pool with its shm
        transport) can be the compute pool.  Timing accounting matches
        :meth:`map` with a one-item list.
        """
        return self.map(fn, [item])[0]

    def imap(self, fn: Callable, items: Sequence):
        """Apply ``fn`` to every item, yielding ``(index, result)``
        pairs *as tasks complete* (completion order for the pool
        backends, input order for serial).

        This is the streaming counterpart of :meth:`map`: consumers
        that persist results incrementally (the sweep harness) can
        write each one the moment it lands instead of waiting for the
        whole fan-out.  The first task exception propagates after the
        remaining tasks are cancelled or drained; closing the generator
        early cancels what has not completed.
        """
        items = list(items)
        start = time.perf_counter()
        try:
            for index, (result, seconds) in self._iter(fn, items):
                self.timings.record_task(seconds)
                perf.count("executor_tasks")
                perf.count("executor_task_seconds", seconds)
                yield index, result
        finally:
            self.timings.wall_seconds += time.perf_counter() - start

    def _iter(self, fn: Callable, items: List):
        for index, item in enumerate(items):
            yield index, _timed_call(fn, item)

    def _run(self, fn: Callable, items: List):
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources; the serial executor is a no-op."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialExecutor(Executor):
    """The reference backend: a plain in-process loop."""

    name = "serial"

    def __init__(self, jobs: Optional[int] = None) -> None:
        super().__init__(jobs=1 if jobs is None else jobs)

    def _run(self, fn: Callable, items: List):
        return [_timed_call(fn, item) for item in items]


class _PoolExecutor(Executor):
    """Shared machinery for the ``concurrent.futures`` backends.

    A closed pool executor transparently re-opens on the next ``map``:
    ``close`` releases the workers, and :meth:`_ensure_pool` lazily
    builds a fresh pool when new work arrives (tested in
    ``tests/exec/test_lifecycle.py``).
    """

    _pool_type = None

    def __init__(self, jobs: Optional[int] = None) -> None:
        super().__init__(jobs=jobs)
        self._pool = None
        self._lock = threading.Lock()

    def _create_pool(self):
        return self._pool_type(max_workers=self.jobs)

    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                self._pool = self._create_pool()
            return self._pool

    def _submit(self, pool, fn: Callable, items: List):
        # Each thread task runs in its own copy of the submitter's
        # context, so perf scopes open here see the task's counts and
        # a task's own scopes see nothing of its siblings'.
        return [
            pool.submit(copy_context().run, _timed_call, fn, item)
            for item in items
        ]

    def _collect(self, future):
        """Turn one completed future into a ``(result, seconds)`` pair."""
        return future.result()

    def _discard(self, future):
        """Consume a completed future whose result will never be used
        (a sibling task already failed), releasing any resources it
        holds."""
        try:
            future.result()
        except BaseException:  # noqa: BLE001 - draining, not handling
            pass

    def _drain(self, futures) -> None:
        for future in futures:
            if not future.cancel():
                self._discard(future)

    def _run(self, fn: Callable, items: List):
        if not items:  # an empty fan-out needs no pool
            return []
        pool = self._ensure_pool()
        futures = self._submit(pool, fn, items)
        pairs = []
        error = None
        for future in futures:
            if error is not None:
                if not future.cancel():
                    self._discard(future)
                continue
            try:
                pairs.append(self._collect(future))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                error = exc
        if error is not None:
            raise error
        return pairs

    def _iter(self, fn: Callable, items: List):
        if not items:
            return
        pool = self._ensure_pool()
        futures = self._submit(pool, fn, items)
        index_of = {future: index for index, future in enumerate(futures)}
        pending = set(futures)
        try:
            for future in as_completed(futures):
                pending.discard(future)
                yield index_of[future], self._collect(future)
        finally:
            self._drain(pending)

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend; worthwhile when tasks release the GIL."""

    name = "thread"
    _pool_type = ThreadPoolExecutor


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend for CPU-bound fan-outs.

    Workers always come from an explicit ``spawn`` context, whatever
    the platform default: spawned workers import the library afresh, so
    fork-inherited module state can never mask a transport bug, and
    behavior matches across Linux/macOS/Windows.

    Tasks cross a serialization boundary: only module-level functions
    with picklable payloads are accepted (everything the built-in
    drivers submit qualifies).  ``transport`` selects how payloads
    cross it — ``"pickle"`` (plain bytes), ``"shm"`` (shared-memory
    tensor handles + broadcast-once costs/topologies, see
    :mod:`repro.exec.shm`), or ``"auto"`` (the default: shm once the
    estimated shareable payload of a task exceeds
    :data:`repro.exec.shm.AUTO_TRANSPORT_THRESHOLD`).  Results are
    bit-identical across transports; only dispatch cost changes.

    Per-run perf counters still come back attached to each
    :class:`~repro.core.result.OptimizationResult`; ambient
    :func:`~repro.utils.perf.perf_scope` counters in the parent do not
    see child-process increments (the parent-side ``dispatch_bytes`` /
    ``dispatch_seconds`` counters do land in the ambient scope).
    """

    name = "process"
    _pool_type = ProcessPoolExecutor

    def __init__(
        self, jobs: Optional[int] = None, transport: str = "auto"
    ) -> None:
        super().__init__(jobs=jobs)
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; valid: {TRANSPORTS}"
            )
        self.transport = transport
        #: Transport used by the most recent ``map`` (``auto`` resolved).
        self.last_transport: Optional[str] = None
        self._store = None

    def _create_pool(self):
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=multiprocessing.get_context("spawn"),
        )

    def _ensure_store(self):
        from repro.exec.shm import SharedTensorStore

        if self._store is None:
            self._store = SharedTensorStore()
        return self._store

    def _resolve_transport(self, fn: Callable, items: List) -> str:
        if self.transport != "auto":
            return self.transport
        from repro.exec import shm

        if not items:
            return "pickle"
        probe = shm.estimate_shareable_bytes((fn, items[0]))
        return "shm" if probe >= shm.AUTO_TRANSPORT_THRESHOLD else "pickle"

    def _submit(self, pool, fn: Callable, items: List):
        from repro.exec import shm

        mode = self._resolve_transport(fn, items)
        self.last_transport = mode
        share = mode == "shm"
        store = self._ensure_store() if share else None
        futures = []
        for item in items:
            start = time.perf_counter()
            blob = shm.pack((fn, item), store)
            self.timings.record_dispatch(
                len(blob), time.perf_counter() - start
            )
            futures.append(pool.submit(_run_packed, blob, share))
        return futures

    def _collect(self, future):
        from repro.exec import shm

        blob = future.result()
        self.timings.record_result(len(blob))
        return shm.unpack_result(blob)

    def _discard(self, future):
        from repro.exec import shm

        try:
            blob = future.result()
        except BaseException:  # noqa: BLE001 - draining, not handling
            return
        shm.discard_result(blob)

    def close(self) -> None:
        """Shut the pool down, then unlink the shm session (if any).

        Order matters: workers must finish before their segments are
        unlinked.  Like the pool, the store is recreated lazily if the
        executor is used again after ``close``.
        """
        super().close()
        if self._store is not None:
            self.timings.broadcast_requests += self._store.broadcast_requests
            self.timings.broadcast_hits += self._store.broadcast_hits
            self._store.close()
            self._store = None


_EXECUTORS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def get_executor(
    backend: str = "serial",
    jobs: Optional[int] = None,
    transport: Optional[str] = None,
) -> Executor:
    """Construct an executor by backend name (``--backend`` semantics).

    ``transport`` selects the process backend's payload transport
    (``"pickle"`` | ``"shm"`` | ``"auto"``); requesting ``"shm"`` for a
    backend with no serialization boundary is an error, while
    ``"pickle"``/``"auto"`` are accepted no-ops there.
    """
    try:
        factory = _EXECUTORS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; valid: {sorted(_EXECUTORS)}"
        ) from None
    if backend == "process":
        return factory(jobs=jobs, transport=transport or "auto")
    if transport is not None and transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; valid: {TRANSPORTS}"
        )
    if transport == "shm":
        raise ValueError(
            "transport='shm' requires the process backend; "
            f"backend {backend!r} has no serialization boundary"
        )
    return factory(jobs=jobs)


_default_lock = threading.Lock()
_default_executor: Optional[Executor] = None


def default_executor() -> Executor:
    """The process-wide default executor (serial unless installed)."""
    with _default_lock:
        global _default_executor
        if _default_executor is None:
            _default_executor = SerialExecutor()
        return _default_executor


def set_default_executor(
    executor: Optional[Executor],
) -> Optional[Executor]:
    """Install ``executor`` as the default; returns the previous one.

    ``None`` resets to the serial default.
    """
    with _default_lock:
        global _default_executor
        previous = _default_executor
        _default_executor = executor
        return previous


@contextmanager
def using_executor(
    executor: Union[Executor, str, None],
    jobs: Optional[int] = None,
    transport: Optional[str] = None,
):
    """Scope a default executor for the ``with`` block.

    Accepts an :class:`Executor`, a backend name (constructed with
    ``jobs`` workers and the given ``transport``, closed on exit), or
    ``None`` (serial).  The previous default is restored even when the
    block raises (tested in ``tests/exec/test_lifecycle.py``).
    """
    owned = isinstance(executor, str) or executor is None
    resolved = (
        get_executor(executor or "serial", jobs=jobs, transport=transport)
        if owned
        else executor
    )
    previous = set_default_executor(resolved)
    try:
        yield resolved
    finally:
        set_default_executor(previous)
        if owned:
            resolved.close()


def resolve_executor(
    executor: Union[Executor, str, None] = None,
    jobs: Optional[int] = None,
    transport: Optional[str] = None,
) -> Executor:
    """Resolve a driver's ``executor`` argument.

    ``None`` yields the process-wide default (serial unless one was
    installed via :func:`set_default_executor`/:func:`using_executor`);
    a string constructs that backend; an :class:`Executor` passes
    through.  ``transport`` applies only when this call constructs the
    backend from a name — an existing executor (or the installed
    default) carries its own transport setting, so combining it with a
    non-``None`` ``transport`` raises rather than silently ignoring
    the request.
    """
    if executor is None:
        if transport is not None:
            raise ValueError(
                "transport applies when a backend is named; the default "
                "executor carries its own transport setting"
            )
        return default_executor()
    if isinstance(executor, str):
        return get_executor(executor, jobs=jobs, transport=transport)
    if transport is not None:
        raise ValueError(
            "transport applies when a backend is named; an Executor "
            "instance carries its own transport setting"
        )
    return executor


@contextmanager
def executor_scope(
    executor: Union[Executor, str, None] = None,
    transport: Optional[str] = None,
):
    """:func:`resolve_executor` for the span of a ``with`` block.

    An executor this call constructs from a backend name is closed on
    exit, so a driver handed ``"process"`` leaves no workers or shared
    segments behind.  An :class:`Executor` instance, or the installed
    default, belongs to the caller and stays open.
    """
    resolved = resolve_executor(executor, transport=transport)
    try:
        yield resolved
    finally:
        if isinstance(executor, str):
            resolved.close()
