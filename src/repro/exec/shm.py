"""Shared-memory tensor transport for the process execution backend.

The process backend historically pickled every task payload in full —
including the ``CoverageCost``'s topology tensors (travel times,
distances, pass-by entries, chord tables), which are identical across
all tasks of a fan-out and grow as ``O(M^2)``.  At large ``M`` the
dispatch cost swamps the per-task compute.  This module makes large
read-only tensors cross the process boundary exactly once:

* :class:`SharedTensorStore` — the parent-side registry.  ``put``
  copies an array into a ``multiprocessing.shared_memory`` segment
  (content-addressed via :func:`repro.persist.array_digest`, so
  value-identical arrays share one segment) and returns a picklable
  :class:`TensorHandle`.  Segments are refcounted and unlinked exactly
  once — on ``release`` reaching zero, on ``close``, or by the atexit
  sweep — so no ``/dev/shm`` entries outlive the parent even when
  workers crash.
* :class:`TensorHandle` — ``(segment name, dtype, shape, order,
  offset, nbytes)``.  ``resolve`` lazily reattaches the segment in the
  consuming process (cached per process, unregistered from the
  ``resource_tracker`` so only the owning store ever unlinks) and
  returns a **read-only** array view over the shared pages.
* Broadcast-once objects — :meth:`SharedTensorStore.broadcast` pickles
  a ``Topology`` / ``LegCoverageTable`` / ``CoverageCost`` once into
  its own segment and hands out a content digest (conventions from
  :mod:`repro.persist`).  Workers fetch the payload bytes on first
  touch and cache them, then unpickle a *fresh* object per task so no
  lazy caches or incremental-solver state leaks between tasks — this
  is what keeps shm runs bit-identical to the pickle path.
* :func:`transport_session` — a thread-local context manager marking a
  store active.  The ``__getstate__`` hooks on ``Topology``,
  ``LegCoverageTable``, and ``CoverageCost`` consult it via
  :func:`share_array`, so plain pickling (serial/thread backends,
  ``copy``, on-disk persistence) is byte-for-byte unchanged when no
  session is active.
* :func:`pack` / :func:`unpack` — the framing used by
  ``ProcessExecutor``: with a store, a :class:`pickle.Pickler` whose
  ``persistent_id`` swaps large plain ``ndarray``s for handles and
  broadcastable objects for digests; without one, plain pickle.
* :func:`pack_result` / :func:`unpack_result` — the *return* direction.
  A worker packs its result; large plain arrays are exported into
  one-shot segments referenced by :class:`ResultHandle`, whose
  ownership passes to the receiving parent (the parent copies the
  bytes out and unlinks on receipt, so result segments never outlive
  the fan-out).  With ``share=False`` this is plain pickle, byte-count
  comparable — either way the parent can account ``result_bytes``.
"""

from __future__ import annotations

import atexit
import functools
import io
import os
import pickle
import threading
import uuid
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.persist import array_digest, payload_digest

#: Transport modes accepted by ``ProcessExecutor`` and the CLI
#: ``--transport`` flag.  ``auto`` uses shm only when a task's
#: estimated shareable payload exceeds :data:`AUTO_TRANSPORT_THRESHOLD`.
TRANSPORTS = ("pickle", "shm", "auto")

#: Arrays at least this large (bytes) are placed in shared memory;
#: smaller ones ride inline in the task pickle (a segment + attach
#: round-trip costs more than it saves below this).
ARRAY_SHARE_THRESHOLD = 1 << 15

#: Result arrays at least this large travel back through one-shot
#: shared segments instead of the result pickle (same rationale).
RESULT_SHARE_THRESHOLD = ARRAY_SHARE_THRESHOLD

#: ``transport="auto"`` switches the process backend to shm when the
#: estimated shareable bytes of one task exceed this.
AUTO_TRANSPORT_THRESHOLD = 1 << 20

#: Prefix of every segment name this module creates (used by tests to
#: enumerate leaks without confusing other tenants of ``/dev/shm``).
SEGMENT_PREFIX = "reproshm"


@functools.lru_cache(maxsize=None)
def _broadcast_types() -> tuple:
    """The classes shipped broadcast-once (imported lazily: the cost
    and topology modules must not be import-time dependencies of the
    executor layer).  Resolved once per process: the pickler asks for
    every object it packs."""
    from repro.core.cost import CoverageCost
    from repro.topology.model import LegCoverageTable, Topology

    return (CoverageCost, Topology, LegCoverageTable)


# --------------------------------------------------------------------- #
# Per-process attachment caches (parent and workers alike)
# --------------------------------------------------------------------- #

_attachments: Dict[str, shared_memory.SharedMemory] = {}
_resolved: Dict["TensorHandle", np.ndarray] = {}
_broadcast_bytes: Dict[str, bytes] = {}
_attach_lock = threading.Lock()

#: Segment names created (and therefore tracker-registered) by a store
#: in *this* process; attaching to one of these must not unregister it.
_owned_names: set = set()

#: Decided once per process at first attach: ``True`` when attachments
#: must be unregistered from the ``resource_tracker``.  Pool workers
#: inherit the parent's tracker, where the owning store already holds
#: the (one) registration — unregistering there would cancel it and
#: break unlink-once.  A standalone process attaching a handle spins up
#: its *own* tracker, which would wrongly unlink the segment at exit
#: (CPython gh-82300); there the attach registration must be dropped.
_untrack_attachments: Optional[bool] = None


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Drop a non-owning attachment from the ``resource_tracker``.

    Best-effort: the tracker is an implementation detail of CPython's
    ``multiprocessing``.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def _tracker_already_running() -> bool:
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing.resource_tracker import _resource_tracker

        return getattr(_resource_tracker, "_fd", None) is not None
    except Exception:
        return True  # assume shared: never cancel someone's registration


def _attach(name: str) -> shared_memory.SharedMemory:
    global _untrack_attachments
    with _attach_lock:
        segment = _attachments.get(name)
        if segment is None:
            if _untrack_attachments is None:
                _untrack_attachments = not _tracker_already_running()
            segment = shared_memory.SharedMemory(name=name)
            if _untrack_attachments and name not in _owned_names:
                _untrack(segment)
            _attachments[name] = segment
        return segment


@atexit.register
def _close_attachments() -> None:
    """Unmap (never unlink) this process's attachments at exit."""
    with _attach_lock:
        _resolved.clear()
        _broadcast_bytes.clear()
        for segment in _attachments.values():
            try:
                segment.close()
            except Exception:  # pragma: no cover - shutdown best-effort
                pass
        _attachments.clear()


# --------------------------------------------------------------------- #
# Handles
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TensorHandle:
    """Picklable reference to an array living in a shared segment."""

    segment: str
    dtype: str
    shape: Tuple[int, ...]
    order: str
    offset: int
    nbytes: int

    def resolve(self) -> np.ndarray:
        """Attach (cached per process) and view the array, read-only.

        ``order == "F"`` segments store the transpose's C-layout bytes,
        so the returned view reproduces the source array's memory
        layout — required for bit-identity of layout-sensitive BLAS
        paths with the pickle transport.
        """
        cached = _resolved.get(self)
        if cached is not None:
            return cached
        segment = _attach(self.segment)
        dtype = np.dtype(self.dtype)
        shape = tuple(self.shape)
        if self.order == "F":
            view = np.ndarray(
                shape[::-1], dtype=dtype, buffer=segment.buf,
                offset=self.offset,
            ).T
        else:
            view = np.ndarray(
                shape, dtype=dtype, buffer=segment.buf, offset=self.offset
            )
        view.flags.writeable = False
        _resolved[self] = view
        return view


def _c_layout(array: np.ndarray) -> Tuple[np.ndarray, str]:
    """C-contiguous bytes plus the layout tag ``resolve`` must restore."""
    if array.flags.c_contiguous:
        return array, "C"
    if array.flags.f_contiguous:
        return array.T, "F"
    return np.ascontiguousarray(array), "C"


class _Segment:
    """One owned shared-memory segment plus its lifecycle state."""

    __slots__ = ("shm", "handle", "refcount", "unlinked")

    def __init__(self, shm: shared_memory.SharedMemory,
                 handle: TensorHandle) -> None:
        self.shm = shm
        self.handle = handle
        self.refcount = 0
        self.unlinked = False

    def unlink(self) -> None:
        if self.unlinked:
            return
        self.unlinked = True
        _owned_names.discard(self.shm.name)
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - crashed tenant
            pass


# --------------------------------------------------------------------- #
# The parent-side store
# --------------------------------------------------------------------- #

_open_stores: "weakref.WeakSet[SharedTensorStore]" = weakref.WeakSet()


@atexit.register
def _close_open_stores() -> None:
    """Last-resort sweep: unlink any store the owner forgot to close."""
    for store in list(_open_stores):
        try:
            store.close()
        except Exception:  # pragma: no cover - shutdown best-effort
            pass


class SharedTensorStore:
    """Parent-side registry of shared segments, content-addressed.

    Also usable as a context manager (``with SharedTensorStore() as
    store``), closing — and therefore unlinking — on exit even when the
    body raises.  Extra ``close`` calls are no-ops; an atexit sweep
    closes any store still open at interpreter shutdown.

    ``broadcast_requests`` / ``broadcast_hits`` count how often
    :meth:`broadcast` was asked to ship an object versus how often a
    previously registered payload (same object or value-identical
    content) could be reused — the sweep harness reports the ratio as
    its broadcast-hit rate.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._segments: Dict[str, _Segment] = {}        # array digest ->
        self._handles: Dict[TensorHandle, str] = {}     # handle -> digest
        self._array_memo: Dict[int, TensorHandle] = {}  # id(array) ->
        self._object_memo: Dict[int, tuple] = {}        # id(obj) -> pid
        self._broadcasts: Dict[str, tuple] = {}         # digest -> pid
        self._in_flight: set = set()
        self._pinned: List[object] = []
        self._closed = False
        self.broadcast_requests = 0
        self.broadcast_hits = 0
        self._tag = uuid.uuid4().hex[:8]
        self._counter = 0
        _open_stores.add(self)

    # -- segment management -------------------------------------------- #

    def _new_segment_name(self) -> str:
        self._counter += 1
        return f"{SEGMENT_PREFIX}-{os.getpid()}-{self._tag}-{self._counter}"

    def put(self, array: np.ndarray) -> TensorHandle:
        """Copy ``array`` into shared memory (deduplicated by content).

        Repeated ``put`` of value-identical arrays returns the same
        handle and bumps the segment's refcount.
        """
        if array.dtype.hasobject:
            raise TypeError("object-dtype arrays cannot be shared")
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedTensorStore is closed")
            memo = self._array_memo.get(id(array))
            if memo is not None:
                self._segments[self._handles[memo]].refcount += 1
                return memo
            digest = array_digest(array)
            entry = self._segments.get(digest)
            if entry is None:
                buffer, order = _c_layout(array)
                shm = shared_memory.SharedMemory(
                    name=self._new_segment_name(), create=True,
                    size=max(1, buffer.nbytes),
                )
                _owned_names.add(shm.name)
                np.ndarray(
                    buffer.shape, dtype=buffer.dtype, buffer=shm.buf
                )[...] = buffer
                handle = TensorHandle(
                    segment=shm.name, dtype=array.dtype.str,
                    shape=tuple(array.shape), order=order, offset=0,
                    nbytes=buffer.nbytes,
                )
                entry = _Segment(shm, handle)
                self._segments[digest] = entry
                self._handles[handle] = digest
            entry.refcount += 1
            self._memo_array(array, entry.handle)
            return entry.handle

    def _memo_array(self, array: np.ndarray, handle: TensorHandle) -> None:
        key = id(array)
        self._array_memo[key] = handle
        try:
            weakref.finalize(array, self._array_memo.pop, key, None)
        except TypeError:  # pragma: no cover - plain ndarrays weakref fine
            self._pinned.append(array)

    def release(self, handle: TensorHandle) -> None:
        """Drop one reference; the last release unlinks the segment."""
        with self._lock:
            digest = self._handles.get(handle)
            if digest is None:
                return
            entry = self._segments[digest]
            entry.refcount -= 1
            if entry.refcount <= 0:
                del self._segments[digest]
                del self._handles[handle]
                entry.unlink()

    def segment_names(self) -> List[str]:
        """Names of currently owned segments (tests enumerate leaks)."""
        with self._lock:
            return [e.shm.name for e in self._segments.values()]

    def close(self) -> None:
        """Unlink every owned segment.  Idempotent, so the ``with``
        protocol and defensive double-closes stay safe."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for entry in self._segments.values():
                entry.unlink()
            self._segments.clear()
            self._handles.clear()
            self._array_memo.clear()
            self._object_memo.clear()
            self._broadcasts.clear()
            self._pinned.clear()
        _open_stores.discard(self)

    def __enter__(self) -> "SharedTensorStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- broadcast-once objects ---------------------------------------- #

    def broadcast(self, obj) -> tuple:
        """Persistent-id tail ``(digest, payload handle)`` for ``obj``.

        The object is pickled (under this store, so its own tensors
        become handles) into a dedicated segment at most once per
        distinct content; later broadcasts of the same object — or of a
        value-identical one — reuse the registered payload.
        """
        with self._lock:
            self.broadcast_requests += 1
            memo = self._object_memo.get(id(obj))
            if memo is not None:
                self.broadcast_hits += 1
                return memo
            self._in_flight.add(id(obj))
        try:
            buffer = io.BytesIO()
            _TransportPickler(buffer, self).dump(obj)
            payload = buffer.getvalue()
        finally:
            with self._lock:
                self._in_flight.discard(id(obj))
        digest = payload_digest(payload)
        with self._lock:
            pid_tail = self._broadcasts.get(digest)
            if pid_tail is None:
                handle = self.put(np.frombuffer(payload, dtype=np.uint8))
                pid_tail = (digest, handle)
                self._broadcasts[digest] = pid_tail
            else:
                self.broadcast_hits += 1
            self._object_memo[id(obj)] = pid_tail
            try:
                weakref.finalize(
                    obj, self._object_memo.pop, id(obj), None
                )
            except TypeError:  # e.g. __slots__ classes without __weakref__
                self._pinned.append(obj)
            return pid_tail

    def in_flight(self, obj) -> bool:
        return id(obj) in self._in_flight


# --------------------------------------------------------------------- #
# Transport sessions (consulted by the class __getstate__ hooks)
# --------------------------------------------------------------------- #

_session = threading.local()


def active_session() -> Optional[SharedTensorStore]:
    """The innermost store activated on this thread, or ``None``."""
    stack = getattr(_session, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def transport_session(store: SharedTensorStore):
    """Mark ``store`` active for pickling on the current thread."""
    stack = getattr(_session, "stack", None)
    if stack is None:
        stack = _session.stack = []
    stack.append(store)
    try:
        yield store
    finally:
        stack.pop()


def share_array(array):
    """Hook helper: swap a large array for a handle when a session is
    active; otherwise return it unchanged (plain pickling stays plain).
    """
    store = active_session()
    if (
        store is None
        or type(array) is not np.ndarray
        or array.nbytes < ARRAY_SHARE_THRESHOLD
        or array.dtype.hasobject
    ):
        return array
    return store.put(array)


def resolve_shared(value):
    """Hook helper: resolve a handle back to its array; pass through
    anything else."""
    if isinstance(value, TensorHandle):
        return value.resolve()
    return value


# --------------------------------------------------------------------- #
# Pickling
# --------------------------------------------------------------------- #


class _TransportPickler(pickle.Pickler):
    """Pickler swapping tensors for handles and broadcastables for
    digests.  Persistent ids:

    * ``("tensor", handle)`` — a large plain ``ndarray``;
    * ``("object", digest, payload handle)`` — a broadcast-once object.
    """

    def __init__(self, file, store: SharedTensorStore) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._store = store

    def persistent_id(self, obj):
        if type(obj) is np.ndarray:
            if (
                obj.nbytes >= ARRAY_SHARE_THRESHOLD
                and not obj.dtype.hasobject
            ):
                return ("tensor", self._store.put(obj))
            return None
        if isinstance(obj, _broadcast_types()) and not self._store.in_flight(
            obj
        ):
            return ("object", *self._store.broadcast(obj))
        return None


class _TransportUnpickler(pickle.Unpickler):
    """Inverse of :class:`_TransportPickler`.

    Broadcast objects are deduplicated *within* one payload (matching
    pickle's memo semantics) but rebuilt fresh for every ``unpack``
    call, so per-task optimizer state never aliases across tasks.
    """

    def __init__(self, file) -> None:
        super().__init__(file)
        self._objects: Dict[str, object] = {}

    def persistent_load(self, pid):
        kind = pid[0]
        if kind == "tensor":
            return pid[1].resolve()
        if kind == "object":
            digest, handle = pid[1], pid[2]
            obj = self._objects.get(digest)
            if obj is None:
                obj = _load_broadcast(digest, handle)
                self._objects[digest] = obj
            return obj
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def _load_broadcast(digest: str, handle: TensorHandle):
    payload = _broadcast_bytes.get(digest)
    if payload is None:
        payload = bytes(memoryview(handle.resolve()))
        _broadcast_bytes[digest] = payload
    return _TransportUnpickler(io.BytesIO(payload)).load()


def pack(payload, store: Optional[SharedTensorStore] = None) -> bytes:
    """Serialize a task payload for the process boundary.

    With a store, large tensors and broadcastable objects travel as
    shared-memory references; without one this is plain pickle (the
    ``transport="pickle"`` path, byte-compatible with what
    ``ProcessPoolExecutor`` would have produced itself).
    """
    if store is None:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    buffer = io.BytesIO()
    with transport_session(store):
        _TransportPickler(buffer, store).dump(payload)
    return buffer.getvalue()


def unpack(blob: bytes):
    """Inverse of :func:`pack`; handles both transports."""
    return _TransportUnpickler(io.BytesIO(blob)).load()


# --------------------------------------------------------------------- #
# Result path: shipping worker results back through shared memory
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ResultHandle:
    """Picklable reference to a result array in a *one-shot* segment.

    Unlike :class:`TensorHandle`, ownership transfers with the handle:
    the worker that exported the array unregisters the segment from the
    resource tracker, and the receiving parent copies the bytes out and
    unlinks on receipt (:func:`unpack_result`) or unlinks without
    reading (:func:`discard_result`).  Result segments therefore never
    outlive the fan-out that produced them.
    """

    segment: str
    dtype: str
    shape: Tuple[int, ...]
    order: str
    nbytes: int


def _export_result_array(array: np.ndarray) -> ResultHandle:
    """Worker side: copy ``array`` into a fresh one-shot segment."""
    buffer, order = _c_layout(array)
    segment = shared_memory.SharedMemory(
        name=f"{SEGMENT_PREFIX}-res-{os.getpid()}-{uuid.uuid4().hex[:12]}",
        create=True, size=max(1, buffer.nbytes),
    )
    # The receiver owns the unlink; drop the creator-side registration
    # so the shared resource tracker never double-unlinks.
    _untrack(segment)
    np.ndarray(
        buffer.shape, dtype=buffer.dtype, buffer=segment.buf
    )[...] = buffer
    handle = ResultHandle(
        segment=segment.name, dtype=array.dtype.str,
        shape=tuple(array.shape), order=order, nbytes=buffer.nbytes,
    )
    segment.close()
    return handle


def _open_result_segment(handle: ResultHandle):
    # Attaching registers with the resource tracker; the ``unlink`` at
    # receipt issues the matching unregister, so no ``_untrack`` here —
    # only the worker's creation-time registration is dropped early.
    return shared_memory.SharedMemory(name=handle.segment)


def _import_result_array(handle: ResultHandle) -> np.ndarray:
    """Parent side: materialize the array, then unlink the segment.

    The returned array is a private writeable copy (matching what a
    pickled result would have been), laid out exactly as the worker's
    array was — ``F``-tagged segments come back Fortran-contiguous.
    """
    segment = _open_result_segment(handle)
    try:
        dtype = np.dtype(handle.dtype)
        shape = tuple(handle.shape)
        raw_shape = shape[::-1] if handle.order == "F" else shape
        array = np.ndarray(
            raw_shape, dtype=dtype, buffer=segment.buf
        ).copy()
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            _untrack(segment)
    return array.T if handle.order == "F" else array


def _unlink_result(handle: ResultHandle) -> None:
    """Release a result segment without reading it (discard path)."""
    try:
        segment = _open_result_segment(handle)
    except FileNotFoundError:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - racing sweeps
        _untrack(segment)


class _ResultPickler(pickle.Pickler):
    """Swaps large plain result arrays for one-shot segment handles."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._exported: Dict[int, ResultHandle] = {}

    def persistent_id(self, obj):
        if (
            type(obj) is np.ndarray
            and obj.nbytes >= RESULT_SHARE_THRESHOLD
            and not obj.dtype.hasobject
        ):
            handle = self._exported.get(id(obj))
            if handle is None:
                handle = _export_result_array(obj)
                self._exported[id(obj)] = handle
            return ("result", handle)
        return None


class _ResultUnpickler(pickle.Unpickler):
    """Inverse of :class:`_ResultPickler`: import + unlink on load."""

    def __init__(self, file) -> None:
        super().__init__(file)
        self._imported: Dict[ResultHandle, np.ndarray] = {}

    def persistent_load(self, pid):
        if pid[0] == "result":
            handle = pid[1]
            array = self._imported.get(handle)
            if array is None:
                array = _import_result_array(handle)
                self._imported[handle] = array
            return array
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


class _ResultDiscarder(pickle.Unpickler):
    """Unlinks every result segment in a blob without copying bytes."""

    def persistent_load(self, pid):
        if pid[0] == "result":
            _unlink_result(pid[1])
            return None
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def pack_result(payload, share: bool = True) -> bytes:
    """Worker side: serialize a task result for the return trip.

    With ``share`` (the shm transport), plain arrays of at least
    :data:`RESULT_SHARE_THRESHOLD` bytes are exported to one-shot
    segments and travel as handles; without it this is plain pickle.
    Either way the parent sees one byte blob per task, so
    ``TaskTimings.result_bytes`` accounts both transports uniformly.
    """
    if not share:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    buffer = io.BytesIO()
    _ResultPickler(buffer).dump(payload)
    return buffer.getvalue()


def unpack_result(blob: bytes):
    """Parent side inverse of :func:`pack_result` (both modes).

    Any result segments referenced by the blob are consumed: their
    bytes are copied into private arrays and the segments unlinked.
    """
    return _ResultUnpickler(io.BytesIO(blob)).load()


def discard_result(blob: bytes) -> None:
    """Release a result blob that will never be consumed.

    Used on the executor's error path for tasks that completed after a
    sibling already failed: their segments must still be unlinked or
    they would outlive the fan-out.  Best-effort by design.
    """
    try:
        _ResultDiscarder(io.BytesIO(blob)).load()
    except Exception:  # pragma: no cover - discard must never raise
        pass


# --------------------------------------------------------------------- #
# auto-mode sizing
# --------------------------------------------------------------------- #


def estimate_shareable_bytes(obj, depth: int = 4) -> int:
    """Rough count of bytes :func:`pack` could move to shared memory.

    Walks containers and ``repro`` objects a few levels deep without
    triggering any lazy caches; used by ``transport="auto"`` to decide
    whether a fan-out is worth a shm session.
    """
    if depth < 0:
        return 0
    if type(obj) is np.ndarray:
        if obj.nbytes >= ARRAY_SHARE_THRESHOLD and not obj.dtype.hasobject:
            return obj.nbytes
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(estimate_shareable_bytes(o, depth - 1) for o in obj)
    if isinstance(obj, dict):
        return sum(
            estimate_shareable_bytes(o, depth - 1) for o in obj.values()
        )
    module = type(obj).__module__ or ""
    if module.startswith("repro."):
        values = getattr(obj, "__dict__", None)
        if values is not None:
            return sum(
                estimate_shareable_bytes(o, depth - 1)
                for o in values.values()
            )
        slots = getattr(type(obj), "__slots__", ())
        return sum(
            estimate_shareable_bytes(getattr(obj, slot, None), depth - 1)
            for slot in slots
        )
    return 0
