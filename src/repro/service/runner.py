"""The coverage service: async front, executor-backed compute pool.

:class:`CoverageService` is the tentpole's orchestrator.  Submissions
enter through :meth:`~CoverageService.submit` (a coroutine — the front
of the service is a single asyncio event loop); each one is keyed by its
request digest and takes exactly one of three paths:

1. **cache hit** — the content-addressed store already holds a verified
   payload: served immediately, nothing computed;
2. **fan-in join** — another submission with the same digest is already
   computing: this one awaits the leader's future and receives the same
   payload object (the optimizer runs exactly once);
3. **computation** — this submission is the leader: the job runs on the
   compute pool (any :mod:`repro.exec` backend via
   ``asyncio.to_thread`` + :meth:`~repro.exec.executor.Executor.run_one`),
   the payload is stored, and every waiter is resolved.

Around paths 1 and 3 the store entry is **pinned**, so LRU eviction can
never drop a result between its computation and the last waiter's read.

Long optimizations by the descent-walk methods (``"basic"``,
``"adaptive"``, ``"perturbed"``) checkpoint after accepted iterations
(:class:`JobCheckpoint` snapshots the walk's state machines — matrix,
counters, RNG, trisection bookkeeping); a runner killed mid-job resumes
from the snapshot and finishes **bit-identically** to an uninterrupted
run (``tests/service/test_service_runner.py``).

:func:`serve_spool` is the file-based frontend behind ``repro serve``:
request JSON files dropped into a spool directory are executed through a
service and answered with result files.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.exec.executor import Executor, resolve_executor
from repro.persist import PathLike, pack_service_record
from repro.service.queue import FanInQueue, ServiceStats
from repro.service.requests import (
    JobRequest,
    execute_request,
    request_digest,
    request_from_dict,
    request_to_dict,
)
from repro.service.store import ResultStore

#: Subdirectory of the store root holding in-flight job checkpoints.
CHECKPOINTS_DIR = "checkpoints"


class JobCheckpoint:
    """Atomic snapshot file for one in-flight job.

    :meth:`save` is called after an accepted optimizer iteration, at
    most once per :data:`~repro.service.requests.CHECKPOINT_INTERVAL_S`,
    with the walk's JSON-plain snapshot
    (:meth:`repro.core.perturbed.PerturbedWalk.snapshot`); writes go
    through ``tmp + os.replace`` so a kill mid-write leaves the previous
    snapshot intact.  :meth:`clear` removes the file on completion —
    a checkpoint only ever describes an *unfinished* job.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, snapshot: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(snapshot) + "\n")
        os.replace(tmp, self.path)

    def load(self) -> Optional[dict]:
        try:
            return json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            # Missing file: fresh start.  Torn/corrupt file: the atomic
            # save protocol makes this unreachable for our own writes,
            # but a fresh start is always a *correct* recovery.
            return None

    def clear(self) -> None:
        with contextlib.suppress(OSError):
            self.path.unlink()


def _execute_task(item: Tuple[dict, Optional[str]]) -> dict:
    """Compute-pool task: rebuild the request and execute it.

    Takes the request's executable JSON form rather than the object so
    the task ships cleanly through every :mod:`repro.exec` backend,
    including process workers.
    """
    request_data, checkpoint_path = item
    request = request_from_dict(request_data)
    checkpoint = (
        JobCheckpoint(checkpoint_path)
        if checkpoint_path is not None else None
    )
    return execute_request(request, checkpoint=checkpoint)


class CoverageService:
    """Async job runner over a content-addressed result store.

    Parameters
    ----------
    store:
        The :class:`~repro.service.store.ResultStore` (or a path, from
        which one is built unbounded).
    executor:
        Compute pool: a :mod:`repro.exec` backend name, an
        :class:`~repro.exec.executor.Executor` instance, or ``None``
        for the process-wide default.
    jobs, transport:
        Forwarded to :func:`~repro.exec.executor.resolve_executor` when
        ``executor`` is a backend name.
    checkpoint:
        Whether leaders checkpoint long optimizations after accepted
        iterations (on by default; checkpoints live under the store
        root).
    """

    def __init__(
        self,
        store: Union[ResultStore, PathLike],
        executor: Union[Executor, str, None] = None,
        jobs: Optional[int] = None,
        transport: Optional[str] = None,
        checkpoint: bool = True,
    ) -> None:
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.executor = resolve_executor(
            executor, jobs=jobs, transport=transport
        )
        self.checkpoint = checkpoint
        self.queue = FanInQueue()
        self.stats = ServiceStats()

    # -------------------------------------------------------------- #
    # Submission — the one entry point
    # -------------------------------------------------------------- #

    async def submit(self, request: JobRequest) -> dict:
        """Resolve ``request`` to its result payload.

        Cache hit, fan-in join, or fresh computation — see the module
        docstring.  The returned payload is exactly what
        :func:`~repro.service.requests.execute_request` produces (and
        what the store verifies), byte-identical whichever path served
        it.
        """
        self.stats.submitted += 1
        digest = request_digest(request)
        future, leader = self.queue.claim(digest)
        if not leader:
            self.stats.fan_in_joins += 1
            return await future
        try:
            with self.store.pinned(digest):
                cached = self.store.get(digest)
                if cached is not None:
                    self.stats.cache_hits += 1
                    self.queue.resolve(digest, cached)
                    return cached
                payload = await asyncio.to_thread(
                    self._compute, request, digest
                )
                self.store.put(digest, request.kind, payload)
        except BaseException as error:
            self.stats.failures += 1
            self.queue.fail(digest, error)
            raise
        self.stats.computed += 1
        self.queue.resolve(digest, payload)
        return payload

    def _compute(self, request: JobRequest, digest: str) -> dict:
        checkpoint_path = None
        if self.checkpoint:
            checkpoint_path = str(
                self.store.root / CHECKPOINTS_DIR / f"{digest}.json"
            )
        return self.executor.run_one(
            _execute_task, (request_to_dict(request), checkpoint_path)
        )

    def checkpoint_for(self, request: JobRequest) -> JobCheckpoint:
        """The checkpoint slot a leader for ``request`` would use."""
        digest = request_digest(request)
        return JobCheckpoint(
            self.store.root / CHECKPOINTS_DIR / f"{digest}.json"
        )

    # -------------------------------------------------------------- #
    # Batch and sync conveniences
    # -------------------------------------------------------------- #

    async def gather(
        self, requests: Sequence[JobRequest]
    ) -> List[dict]:
        """Submit many requests concurrently; payloads in order.

        Duplicate requests in the batch fan in: the first occurrence
        leads, the rest join its future.
        """
        return list(await asyncio.gather(
            *(self.submit(request) for request in requests)
        ))

    def run(
        self, requests: Union[JobRequest, Sequence[JobRequest]]
    ) -> Union[dict, List[dict]]:
        """Synchronous front door: resolve request(s) on a fresh loop."""
        if isinstance(requests, JobRequest):
            return asyncio.run(self.submit(requests))
        return asyncio.run(self.gather(requests))

    def import_sweep(self, out_dir: PathLike) -> Tuple[int, int]:
        """Pre-warm the store from a sweep output directory."""
        imported, skipped = self.store.import_sweep(out_dir)
        self.stats.imported += imported
        return imported, skipped


# ------------------------------------------------------------------ #
# Spool serving — the file frontend behind ``repro serve``
# ------------------------------------------------------------------ #


def iter_spool(spool_dir: PathLike) -> Iterable[pathlib.Path]:
    """Pending request files in a spool directory, oldest first."""
    spool = pathlib.Path(spool_dir)
    entries = [
        path for path in spool.glob("*.json")
        if not path.name.endswith(".result.json")
    ]
    entries.sort(key=lambda path: (path.stat().st_mtime, path.name))
    return entries


def serve_spool(
    service: CoverageService, spool_dir: PathLike
) -> List[pathlib.Path]:
    """Answer every pending request file in ``spool_dir``.

    For each ``name.json`` request (the
    :func:`~repro.service.requests.request_to_dict` form), the result is
    written next to it as ``name.result.json`` — the full verifiable
    store record, so consumers can check integrity the same way the
    cache does.  Files that already have an answer are skipped, making
    repeated invocations (`repro serve --spool ... ` in a loop or under
    cron) idempotent.  Returns the result paths written this pass.
    """
    written: List[pathlib.Path] = []
    pending = []
    for path in iter_spool(spool_dir):
        answer = path.with_suffix(".result.json")
        if answer.exists():
            continue
        request = request_from_dict(json.loads(path.read_text()))
        pending.append((path, answer, request))
    if not pending:
        return written
    payloads = service.run([request for _, _, request in pending])
    for (path, answer, request), payload in zip(pending, payloads):
        record = pack_service_record(
            request_digest(request), request.kind, payload
        )
        tmp = answer.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=2) + "\n")
        os.replace(tmp, answer)
        written.append(answer)
    return written
