"""Per-layer span tracer for the end-to-end benchmark.

The benchmark measures the package from outside: :class:`Tracer` wraps
the public functions of each layer (the module and class attributes in
:data:`TARGETS`) and leaves the package's source untouched.  Every
wrapped call is a *span*.  Spans nest through a context variable, so a
span opened inside ``asyncio.to_thread`` or an asyncio task is the child
of the span that awaited it.  A span's *self time* is its duration minus
the durations of its direct child spans, so the self times of all spans
under a root add up to the root's duration.

Root spans belong to the benchmark's own code (layer ``bench``).  A root
carries a *weight*: ``1`` for a serial timeline and ``1/n`` for each of
``n`` concurrent closed-loop clients, so weighted self times still add
up to wall time when clients overlap.  What the named layers do not
cover is reported as unattributed.

Worker processes: a spawned worker imports the entry script as
``__mp_main__``; when :data:`TRACE_ENV` names a directory, the script
calls :func:`install_worker`, which installs the same wrappers there.
After every task the worker rewrites ``worker-<pid>.json`` in that
directory, and :func:`read_workers` sums the files.

Some targets only count (``span=False``): the executor's
``TaskTimings`` records, shared-memory stores and the program's own
``perf.count`` tallies.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Environment variable naming the directory worker processes write to.
TRACE_ENV = "E2EBENCH_TRACE_DIR"

#: Layer of the benchmark's own root spans (reported as unattributed).
BENCH_LAYER = "bench"

#: Layers whose self time counts as attributed wall time.
LAYERS = (
    "topology", "markov", "cost", "linesearch", "optimizer",
    "simulation", "exec", "sweep", "service",
)

_current: contextvars.ContextVar = contextvars.ContextVar(
    "e2ebench_span", default=None
)


def empty_snapshot() -> dict:
    return {"spans": {}, "counters": {}}


class _Span:
    __slots__ = ("parent", "weight", "child")

    def __init__(self, parent: Optional["_Span"], weight: float) -> None:
        self.parent = parent
        self.weight = weight
        self.child = 0.0


@dataclass(frozen=True)
class Target:
    """One wrapped attribute, ``module:attr`` (``attr`` may be
    ``Class.method``), recorded as span ``layer.name``.

    ``observe(tracer, args, kwargs, result, start)`` runs after each
    call and may add counters; ``span=False`` records no span.
    """

    module: str
    attr: str
    layer: str
    name: str
    observe: Optional[Callable] = None
    span: bool = True


class Tracer:
    """Span and counter store, plus the wrappers that feed it."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``"layer.name"`` -> [calls, total_s, self_s, weighted_self_s]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        #: Shared-memory stores created while tracing.
        self.stores: list = []
        #: Called after each outermost span ends (the worker flush).
        self.on_top_exit: Optional[Callable[[], None]] = None
        self._undo: list = []

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, weight: Optional[float] = None):
        parent = _current.get()
        if weight is None:
            weight = 1.0 if parent is None else parent.weight
        span = _Span(parent, weight)
        return span, _current.set(span), time.perf_counter()

    def _exit(self, key: str, span: _Span, token, start: float) -> None:
        duration = time.perf_counter() - start
        _current.reset(token)
        own = duration - span.child
        with self._lock:
            if span.parent is not None:
                span.parent.child += duration
            entry = self.spans.get(key)
            if entry is None:
                entry = self.spans[key] = [0, 0.0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            entry[3] += own * span.weight
        if span.parent is None and self.on_top_exit is not None:
            self.on_top_exit()

    @contextlib.contextmanager
    def root(self, name: str, weight: float = 1.0):
        """A benchmark-owned root span (layer ``bench``)."""
        state = self._enter(weight)
        try:
            yield
        finally:
            self._exit(f"{BENCH_LAYER}.{name}", *state)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
            }

    def dump(self, path: pathlib.Path) -> None:
        """Atomically write the snapshot (worker side)."""
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    # -------------------------------------------------------------- #
    # Wrapping
    # -------------------------------------------------------------- #

    def wrap(self, fn: Callable, target: Target) -> Callable:
        key = f"{target.layer}.{target.name}"
        observe = target.observe
        tracer = self

        if not target.span:
            @functools.wraps(fn)
            def count_wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(tracer, args, kwargs, result, None)
                return result

            return count_wrapper

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                state = tracer._enter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._exit(key, *state)
                if observe is not None:
                    observe(tracer, args, kwargs, result, state[2])
                return result

            return async_wrapper

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: how long the consumer waits for
            # the next item.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                generator = fn(*args, **kwargs)
                try:
                    while True:
                        state = tracer._enter()
                        try:
                            item = next(generator)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(key, *state)
                        yield item
                finally:
                    generator.close()

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(key, *state)
            if observe is not None:
                observe(tracer, args, kwargs, result, state[2])
            return result

        return wrapper

    def install(self, targets=None) -> "Tracer":
        """Wrap every target in place; :meth:`uninstall` restores."""
        for target in TARGETS if targets is None else targets:
            owner = importlib.import_module(target.module)
            attr = target.attr
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(raw.__func__, target))
            else:
                patched = self.wrap(raw, target)
            self._undo.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, patched)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced rounds."""

    enabled = False
    stores = ()

    def root(self, name: str, weight: float = 1.0):
        return contextlib.nullcontext()

    def snapshot(self) -> dict:
        return empty_snapshot()


# ------------------------------------------------------------------ #
# Observers: counters read at the layer boundaries
# ------------------------------------------------------------------ #


def _observe_batch(tracer, args, kwargs, result, start):
    matrices = len(args[1])
    if matrices:  # the program counts only non-empty batches
        tracer.count("cost.batch_calls")
        tracer.count("cost.batch_matrices", matrices)
        tracer.count("cost.batch_feasible", int(result[3].sum()))


def _observe_walk(tracer, args, kwargs, result, start):
    walk = args[0]
    tracer.count("optimizer.iterations", walk.iteration)
    tracer.count("optimizer.accepted", walk.accepted_steps)


def _observe_single(tracer, args, kwargs, result, start):
    tracer.count("simulation.transitions", int(result.transitions))


def _observe_team(tracer, args, kwargs, result, start):
    tracer.count("simulation.transitions", int(result[4].sum()))


def _observe_task(tracer, args, kwargs, result, start):
    tracer.count("exec.tasks")
    tracer.count("exec.task_s", args[1])


def _observe_dispatch(tracer, args, kwargs, result, start):
    tracer.count("exec.dispatch_bytes", args[1])
    tracer.count("exec.dispatch_s", args[2])


def _observe_result(tracer, args, kwargs, result, start):
    tracer.count("exec.result_bytes", args[1])


def _observe_submit(tracer, args, kwargs, result, start):
    """Submit-to-result time of every pool task, via done callbacks."""

    def done(_future):
        tracer.count("exec.turnaround_s", time.perf_counter() - start)

    for future in result:
        future.add_done_callback(done)


def _observe_store(tracer, args, kwargs, result, start):
    tracer.stores.append(args[0])


def _observe_claim(tracer, args, kwargs, result, start):
    if not result[1]:
        tracer.count("service.fan_in_joins")


def _observe_get(tracer, args, kwargs, result, start):
    if result is not None:
        tracer.count("service.store_hits")


def _observe_sweep(tracer, args, kwargs, result, start):
    tracer.count("sweep.skipped_cells", result.skipped_cells)


def _observe_perf(tracer, args, kwargs, result, start):
    amount = args[1] if len(args) > 1 else kwargs.get("amount", 1)
    tracer.count(f"perf.{args[0]}", amount)


def _t(module, attr, layer, name, observe=None, span=True) -> Target:
    return Target(module, attr, layer, name, observe, span)


#: Every wrapped boundary, by layer.  A function imported by name into
#: another module is wrapped where its caller looks it up.
TARGETS = (
    # topology: geometry
    _t("repro.topology.model", "passby_tensor", "topology", "passby"),
    _t("repro.topology.model", "support_passby_entries", "topology",
       "passby"),
    _t("repro.topology.model", "LegCoverageTable.__init__", "topology",
       "chord"),
    # markov: chain linear algebra
    _t("repro.core.state", "ChainState.from_matrix", "markov",
       "state_build"),
    _t("repro.markov.incremental", "IncrementalCoreTracker.acquire",
       "markov", "tracker"),
    _t("repro.markov.sparse", "SparseStationaryTemplate.solve_batch",
       "markov", "stationary_batch"),
    _t("repro.markov.sparse", "SparseCoreSolver.solve", "markov",
       "core_solve"),
    _t("repro.markov.sparse", "SparseCoreSolver.solve_transpose",
       "markov", "core_solve"),
    _t("repro.markov.incremental", "WoodburyCoreSolver.solve", "markov",
       "core_solve"),
    _t("repro.markov.incremental", "WoodburyCoreSolver.solve_transpose",
       "markov", "core_solve"),
    # cost: objective and gradient
    _t("repro.core.cost", "CoverageCost.__init__", "cost", "build"),
    _t("repro.core.cost", "CoverageCost.evaluate", "cost", "evaluate"),
    _t("repro.core.cost", "CoverageCost.gradient", "cost", "gradient"),
    _t("repro.core.cost", "CoverageCost.projected_gradient", "cost",
       "gradient"),
    _t("repro.core.cost", "CoverageCost.batch_evaluate", "cost", "batch",
       _observe_batch),
    # linesearch: batched probes and trisection
    _t("repro.core.perturbed", "trisection_search", "linesearch",
       "search"),
    _t("repro.core.cost", "RayBatch.__init__", "linesearch", "ray"),
    _t("repro.core.cost", "RayBatch.__call__", "linesearch", "probe"),
    _t("repro.core.cost", "RayBatch.probe_state", "linesearch", "probe"),
    _t("repro.core.cost", "MultiRayBatch.evaluate", "linesearch",
       "probe"),
    _t("repro.core.cost", "MultiRayBatch.probe_states", "linesearch",
       "probe"),
    # optimizer: the facade and the walk loop
    _t("repro", "optimize", "optimizer", "optimize"),
    _t("repro.core.api", "optimize", "optimizer", "optimize"),
    _t("repro.core.perturbed", "advance_walk", "optimizer", "iteration"),
    _t("repro.core.perturbed", "PerturbedWalk.__init__", "optimizer",
       "walk_start"),
    _t("repro.core.perturbed", "paper_random_matrix", "optimizer",
       "initial"),
    _t("repro.core.perturbed", "PerturbedWalk.result", "optimizer",
       "walk_result", _observe_walk),
    # simulation
    _t("repro", "simulate", "simulation", "facade"),
    _t("repro.simulation.api", "simulate", "simulation", "facade"),
    _t("repro.simulation.vectorized", "simulate_schedule_vectorized",
       "simulation", "single", _observe_single),
    _t("repro.multisensor.vectorized", "simulate_team_vectorized",
       "simulation", "team", _observe_team),
    # exec: dispatch, pools and the worker's task entry
    _t("repro.exec.executor", "Executor.map", "exec", "map"),
    _t("repro.exec.executor", "Executor.imap", "exec", "imap"),
    _t("repro.exec.executor", "_PoolExecutor._submit", "exec",
       "dispatch", _observe_submit),
    _t("repro.exec.executor", "ProcessExecutor._submit", "exec",
       "dispatch", _observe_submit),
    _t("repro.exec.executor", "ProcessExecutor._collect", "exec",
       "collect"),
    _t("repro.exec.executor", "_PoolExecutor.close", "exec", "close"),
    _t("repro.exec.executor", "ProcessExecutor.close", "exec", "close"),
    _t("repro.exec.executor", "_run_packed", "exec", "worker_task"),
    _t("repro.exec.executor", "TaskTimings.record_task", "exec", "-",
       _observe_task, span=False),
    _t("repro.exec.executor", "TaskTimings.record_dispatch", "exec", "-",
       _observe_dispatch, span=False),
    _t("repro.exec.executor", "TaskTimings.record_result", "exec", "-",
       _observe_result, span=False),
    _t("repro.exec.shm", "SharedTensorStore.__init__", "exec", "-",
       _observe_store, span=False),
    # sweep
    _t("repro.sweep.driver", "run_sweep", "sweep", "run", _observe_sweep),
    _t("repro.sweep.driver", "run_cell", "sweep", "cell"),
    _t("repro.sweep.stream", "ShardWriter.write_record", "sweep",
       "write"),
    # service
    _t("repro.service.runner", "CoverageService.submit", "service",
       "submit"),
    _t("repro.service.runner", "CoverageService._compute", "service",
       "compute"),
    _t("repro.service.runner", "_execute_task", "service", "execute"),
    _t("repro.service.runner", "request_digest", "service", "digest"),
    _t("repro.service.store", "request_digest", "service", "digest"),
    _t("repro.service.queue", "FanInQueue.claim", "service", "claim",
       _observe_claim),
    _t("repro.service.store", "ResultStore.get", "service", "store_get",
       _observe_get),
    _t("repro.service.store", "ResultStore.put", "service", "store_put"),
    _t("repro.service.store", "ResultStore.import_sweep", "service",
       "import"),
    # the program's own counters (what a perf_scope would collect)
    _t("repro.utils.perf", "count", "perf", "-", _observe_perf,
       span=False),
)


# ------------------------------------------------------------------ #
# Worker side and snapshot arithmetic
# ------------------------------------------------------------------ #


def install_worker(directory: str) -> Tracer:
    """Trace this worker process; flush after every task."""
    tracer = Tracer().install()
    path = pathlib.Path(directory) / f"worker-{os.getpid()}.json"
    tracer.on_top_exit = lambda: tracer.dump(path)
    return tracer


def add_snapshot(total: dict, data: dict, sign: int = 1) -> dict:
    """``total += sign * data`` for span and counter snapshots."""
    for key, entry in data["spans"].items():
        into = total["spans"].setdefault(key, [0, 0.0, 0.0, 0.0])
        for index, value in enumerate(entry):
            into[index] += sign * value
    for key, value in data["counters"].items():
        total["counters"][key] = total["counters"].get(key, 0) + sign * value
    return total


def diff(after: dict, before: dict) -> dict:
    """Snapshot difference ``after - before``."""
    return add_snapshot(add_snapshot(empty_snapshot(), after), before, -1)


def read_workers(directory: pathlib.Path) -> dict:
    """Sum the snapshots the workers wrote to ``directory``."""
    total = empty_snapshot()
    for path in sorted(directory.glob("worker-*.json")):
        add_snapshot(total, json.loads(path.read_text()))
    return total
