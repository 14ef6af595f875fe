"""The sharded sweep driver: streaming, resumable fan-out over cells.

:func:`run_sweep` turns a :class:`~repro.sweep.grid.SweepGrid` into
durable results:

1. **Expand + dedup** — the grid enumerates its cells; value-identical
   cells (overlapping axes) collapse by content digest.
2. **Resume** — cells whose digest already has a whole record on disk
   are skipped.  Since a record only exists once it is fsynced (see
   :mod:`repro.sweep.stream`), killing a sweep at any instant loses at
   most the in-flight cells and duplicates none.
3. **Shard** — pending cells are grouped by topology key and groups are
   dealt to ``shards`` output files (greedy balance, deterministic), so
   cells sharing topology tensors run consecutively and hit the
   broadcast-once cache instead of re-shipping.
4. **Stream** — one executor runs the whole sweep: every pending cell,
   in shard order and cut by the ``max_cells`` budget, goes through a
   single ``imap``, and each finished record is written (flush + fsync)
   to its own shard's file the moment it lands.  Workers stay busy
   across shard boundaries, a process pool is spawned once per call
   whatever ``shards`` is, and its
   :class:`~repro.exec.shm.SharedTensorStore` lives for the whole
   sweep, so each distinct topology is broadcast once.

The driver finishes by folding the *whole* directory (old and new
records) into per-family Pareto fronts.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.cost import resolve_linalg
from repro.exec import get_executor
from repro.sweep.aggregate import front_summary
from repro.sweep.grid import (
    SweepCell,
    SweepGrid,
    build_topology,
    cell_digest,
    run_cell,
    topology_key,
)
from repro.sweep.stream import (
    ShardWriter,
    completed_digests,
    iter_sweep_records,
    list_shards,
    shard_path,
)


def _sweep_task(task):
    """Module-level task body (process-backend picklable): run one cell
    against its (possibly broadcast-shared) topology."""
    cell, topology = task
    return run_cell(cell, topology=topology)


@dataclass
class SweepReport:
    """What a :func:`run_sweep` invocation did, and what is on disk.

    Counters describe *this* invocation (``ran``, transfer bytes);
    ``records`` and ``fronts`` describe the whole directory including
    records from earlier resumed runs.
    """

    out_dir: str
    backend: str
    shards: int
    total_cells: int          # grid expansion size
    unique_cells: int         # after digest dedup
    duplicate_cells: int      # collapsed by dedup
    skipped_cells: int        # already on disk (resume)
    ran_cells: int            # executed and written by this invocation
    interrupted: bool         # stopped early by max_cells
    records: int              # whole records now on disk
    wall_seconds: float
    dispatch_bytes: int = 0
    result_bytes: int = 0
    broadcast_requests: int = 0
    broadcast_hits: int = 0
    fronts: Dict[str, List[dict]] = field(default_factory=dict)

    @property
    def broadcast_hit_ratio(self) -> float:
        if not self.broadcast_requests:
            return 0.0
        return self.broadcast_hits / self.broadcast_requests


def dedup_cells(cells) -> Tuple[List[Tuple[str, SweepCell]], int]:
    """Collapse value-identical cells; returns ``(unique, dropped)``.

    ``unique`` pairs each first-occurrence cell with its digest, in
    expansion order.
    """
    seen = set()
    unique: List[Tuple[str, SweepCell]] = []
    dropped = 0
    for cell in cells:
        digest = cell_digest(cell)
        if digest in seen:
            dropped += 1
            continue
        seen.add(digest)
        unique.append((digest, cell))
    return unique, dropped


def plan_shards(
    pending: List[Tuple[str, SweepCell]], shards: int
) -> List[List[Tuple[str, SweepCell]]]:
    """Deal pending cells to ``shards`` queues, keeping topology groups
    intact.

    Cells are grouped by :func:`topology_key` (first-appearance order);
    each group goes whole to the currently lightest queue (ties to the
    lowest index), so the deal is deterministic, roughly balanced, and
    cells sharing topology tensors stay consecutive on one queue —
    which is what makes the broadcast-once cache pay off.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    groups: Dict[Tuple, List[Tuple[str, SweepCell]]] = {}
    order: List[Tuple] = []
    for digest, cell in pending:
        key = topology_key(cell)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((digest, cell))
    queues: List[List[Tuple[str, SweepCell]]] = [[] for _ in range(shards)]
    for key in order:
        lightest = min(range(shards), key=lambda i: (len(queues[i]), i))
        queues[lightest].extend(groups[key])
    return queues


def run_sweep(
    grid: SweepGrid,
    out_dir,
    shards: int = 1,
    backend: str = "serial",
    jobs: Optional[int] = None,
    transport: Optional[str] = None,
    resume: bool = False,
    max_cells: Optional[int] = None,
) -> SweepReport:
    """Run (or resume) a sweep; returns a :class:`SweepReport`.

    ``out_dir`` holds the shard files; a directory that already
    contains shards requires ``resume=True`` (refusing is what keeps an
    accidental re-run from silently mixing two different grids —
    resuming the *same* grid is always safe because identity is the
    cell digest).  ``max_cells`` caps how many cells this invocation
    executes — the test-and-benchmark hook for simulating a kill at a
    record boundary.
    """
    start = time.perf_counter()
    cells = grid.expand()
    unique, duplicates = dedup_cells(cells)

    existing = list_shards(out_dir)
    if existing and not resume:
        raise ValueError(
            f"{out_dir} already holds {len(existing)} shard file(s); "
            "pass resume=True to continue it"
        )
    done = completed_digests(out_dir) if existing else set()
    pending = [(d, c) for d, c in unique if d not in done]
    skipped = len(unique) - len(pending)
    if max_cells is not None:
        if max_cells < 0:
            raise ValueError(f"max_cells must be >= 0, got {max_cells}")
        budget = max_cells
    else:
        budget = len(pending)

    # Every pending cell in shard order, cut by the budget, tagged with
    # the shard whose file receives its record.
    tasks: List[Tuple[SweepCell, object]] = []
    shard_of: List[int] = []
    # One topology instance per key, kept alive for the whole sweep:
    # every task sharing it hits the store's id-memo, and with the
    # process backend its tensors broadcast once per sweep.
    topologies: Dict[Tuple, object] = {}
    for shard, queue in enumerate(plan_shards(pending, shards)):
        for _, cell in queue[: budget - len(tasks)]:
            key = topology_key(cell)
            if key not in topologies:
                topologies[key] = build_topology(cell)
            # Before any cell runs: a linalg mode the topology refuses
            # (sparse without an adjacency mask) fails the whole sweep.
            resolve_linalg(cell.linalg, topologies[key])
            tasks.append((cell, topologies[key]))
            shard_of.append(shard)

    ran = 0
    with get_executor(backend, jobs=jobs, transport=transport) as executor, \
            ExitStack() as stack:
        writers = {
            shard: stack.enter_context(ShardWriter(shard_path(out_dir, shard)))
            for shard in sorted(set(shard_of))
        }
        for index, (record, matrix) in executor.imap(_sweep_task, tasks):
            if grid.include_matrix:
                record = dict(record)
                record["matrix"] = matrix.tolist()
            writers[shard_of[index]].write_record(record)
            ran += 1

    records = list(iter_sweep_records(out_dir))
    return SweepReport(
        out_dir=str(out_dir),
        backend=backend,
        shards=shards,
        total_cells=len(cells),
        unique_cells=len(unique),
        duplicate_cells=duplicates,
        skipped_cells=skipped,
        ran_cells=ran,
        interrupted=ran < len(pending),
        records=len(records),
        wall_seconds=time.perf_counter() - start,
        dispatch_bytes=executor.timings.dispatch_bytes,
        result_bytes=executor.timings.result_bytes,
        broadcast_requests=executor.timings.broadcast_requests,
        broadcast_hits=executor.timings.broadcast_hits,
        fronts=front_summary(records),
    )
