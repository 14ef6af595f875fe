#!/usr/bin/env python
"""Benchmark the sharded sweep driver against the naive per-setting loop.

Three claims are measured (see ``docs/sweeps.md``):

1. **Bit-identity** — a sweep's streamed records are identical, record
   for record, to running every cell through the pre-sweep idiom (a
   fresh process pool per scenario setting), and to a serial run.
2. **End-to-end speedup** — the sweep driver amortizes pool spawns and
   topology broadcasts across the whole grid (one pool and one
   shared-memory store per sweep, whatever the shard count; the pools
   it creates are counted, not assumed), so it must be at least
   ``SPEEDUP_FLOOR``x faster than the naive loop, which pays worker
   spawn + import + re-broadcast for every setting.  The floor is
   asserted on full runs *and* ``--check-only`` smokes: it comes from
   eliminated fixed costs, not from compute scale.
3. **Resume exactness** — a sweep killed at a record boundary and
   resumed produces a merged shard set byte-identical to an
   uninterrupted run, with no cell duplicated (asserted via the
   canonical digest-sorted merge).

Results are written to ``benchmarks/results/BENCH_sweep.json`` with the
broadcast-hit ratio and both transfer directions (``dispatch_bytes``,
``result_bytes``).

Usage::

    python benchmarks/perf/bench_sweep.py               # full run
    python benchmarks/perf/bench_sweep.py --check-only  # CI smoke

``--check-only`` shrinks the grid, asserts bit-identity, the speedup
floor, resume exactness, schema validity
(``tools/check_sweep_schema.py``), and shm-segment leak freedom, and
writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.exec import ProcessExecutor  # noqa: E402
from repro.exec import shm  # noqa: E402
from repro.sweep import (  # noqa: E402
    ShardWriter,
    SweepGrid,
    build_topology,
    dedup_cells,
    merge_shards,
    run_sweep,
    shard_path,
    topology_key,
)
from repro.sweep.driver import _sweep_task  # noqa: E402

DEFAULT_OUT = REPO / "benchmarks" / "results" / "BENCH_sweep.json"
SPEEDUP_FLOOR = 2.0
TRANSPORTS = ("pickle", "shm")
JOBS = 2
SHARDS = 2


class CheckFailure(AssertionError):
    """A correctness claim the benchmark asserts did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _grid(sizes, weights, seeds, iterations) -> SweepGrid:
    return SweepGrid(
        topologies=({"family": "city-grid", "sizes": list(sizes)},),
        weights=tuple(weights),
        methods=("adaptive",),
        seeds=tuple(seeds),
        iterations=iterations,
    )


def _setting_key(cell):
    """One scenario setting: the naive loop's unit of pool creation."""
    return topology_key(cell) + (
        cell.alpha, cell.beta, cell.epsilon, cell.method
    )


@contextmanager
def _counting_pools():
    """Count the process pools created inside the block."""
    created = []
    original = ProcessExecutor._create_pool

    def counting(self):
        created.append(self)
        return original(self)

    ProcessExecutor._create_pool = counting
    try:
        yield created
    finally:
        ProcessExecutor._create_pool = original


def run_naive(grid: SweepGrid, out_dir, transport: str) -> dict:
    """The pre-sweep idiom: a fresh process pool per scenario setting.

    Each setting spawns its own workers (paying interpreter start +
    import) and re-broadcasts its topology tensors from scratch; records
    stream to one shard file so the output is merge-comparable with a
    sweep directory.
    """
    unique, _ = dedup_cells(grid.expand())
    settings = {}
    for digest, cell in unique:
        settings.setdefault(_setting_key(cell), []).append((digest, cell))
    topologies = {}
    for _, cell in unique:
        key = topology_key(cell)
        if key not in topologies:
            topologies[key] = build_topology(cell)

    pools = 0
    started = time.perf_counter()
    with ShardWriter(shard_path(out_dir, 0)) as writer:
        for group in settings.values():
            tasks = [
                (cell, topologies[topology_key(cell)])
                for _, cell in group
            ]
            with ProcessExecutor(jobs=JOBS, transport=transport) as exe:
                pools += 1
                for record, _ in exe.map(_sweep_task, tasks):
                    writer.write_record(record)
    return {
        "wall_seconds": time.perf_counter() - started,
        "pools": pools,
        "settings": len(settings),
        "cells": len(unique),
    }


def bench_transport(grid: SweepGrid, transport: str, workdir: Path) -> dict:
    """Naive loop vs sweep driver under one transport; asserts bit-
    identity of the streamed records across both and against serial."""
    label = f"transport={transport}"
    naive_dir = workdir / f"naive-{transport}"
    sweep_dir = workdir / f"sweep-{transport}"
    serial_dir = workdir / f"serial-{transport}"

    naive = run_naive(grid, naive_dir, transport)

    with _counting_pools() as pools:
        started = time.perf_counter()
        report = run_sweep(
            grid, sweep_dir, shards=SHARDS, backend="process", jobs=JOBS,
            transport=transport,
        )
        sweep_wall = time.perf_counter() - started
    _check(report.ran_cells == naive["cells"],
           f"{label}: sweep ran {report.ran_cells} of {naive['cells']}")

    run_sweep(grid, serial_dir)  # the reference result set

    merged = {}
    for name, directory in (
        ("naive", naive_dir), ("sweep", sweep_dir), ("serial", serial_dir)
    ):
        target = workdir / f"{name}-{transport}.jsonl"
        merge_shards(directory, target)
        merged[name] = target.read_bytes()
    _check(merged["sweep"] == merged["naive"],
           f"{label}: sweep records differ from the naive loop's")
    _check(merged["sweep"] == merged["serial"],
           f"{label}: sweep records differ from the serial run's")

    return {
        "transport": transport,
        "cells": naive["cells"],
        "naive": {
            "wall_seconds": naive["wall_seconds"],
            "pools": naive["pools"],
            "settings": naive["settings"],
        },
        "sweep": {
            "wall_seconds": sweep_wall,
            "pools": len(pools),
            "shards": SHARDS,
            "dispatch_bytes": report.dispatch_bytes,
            "result_bytes": report.result_bytes,
            "broadcast_requests": report.broadcast_requests,
            "broadcast_hits": report.broadcast_hits,
            "broadcast_hit_ratio": report.broadcast_hit_ratio,
        },
        "speedup": naive["wall_seconds"] / sweep_wall,
    }


def check_resume_exactness(grid: SweepGrid, workdir: Path) -> None:
    """Kill-at-a-record-boundary resume: merged bytes equal, no dups."""
    full_dir = workdir / "resume-full"
    killed_dir = workdir / "resume-killed"
    run_sweep(grid, full_dir, shards=SHARDS)
    interrupted = run_sweep(
        grid, killed_dir, shards=SHARDS,
        max_cells=max(1, len(dedup_cells(grid.expand())[0]) // 2),
    )
    _check(interrupted.interrupted,
           "resume check: the interrupted run was not interrupted")
    resumed = run_sweep(grid, killed_dir, shards=SHARDS, resume=True)
    _check(resumed.skipped_cells == interrupted.ran_cells,
           "resume check: completed cells were not all skipped")
    full = workdir / "resume-full.jsonl"
    killed = workdir / "resume-killed.jsonl"
    counts = (merge_shards(full_dir, full),
              merge_shards(killed_dir, killed))
    _check(counts[0] == counts[1],
           f"resume check: record counts differ: {counts}")
    _check(full.read_bytes() == killed.read_bytes(),
           "resume check: merged shard sets are not byte-identical")
    schema = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_sweep_schema.py"),
         str(full_dir), str(killed_dir)],
        capture_output=True, text=True,
    )
    _check(schema.returncode == 0,
           f"resume check: schema validation failed:\n{schema.stderr}")
    print("resume exactness + schema OK", flush=True)


def _leaked_segments():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return None
    return sorted(
        name for name in os.listdir("/dev/shm")
        if name.startswith(shm.SEGMENT_PREFIX)
    )


def _print_cell(cell) -> None:
    ratio = cell["sweep"]["broadcast_hit_ratio"]
    print(
        f"  naive {cell['naive']['wall_seconds']:.2f}s "
        f"({cell['naive']['pools']} pools) | sweep "
        f"{cell['sweep']['wall_seconds']:.2f}s "
        f"({cell['sweep']['pools']} pool(s), {SHARDS} shards, "
        f"broadcast hits {ratio:.0%}, "
        f"dispatch {cell['sweep']['dispatch_bytes']:,} B, "
        f"results {cell['sweep']['result_bytes']:,} B) -> "
        f"{cell['speedup']:.2f}x",
        flush=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check-only", action="store_true",
        help="small grid, assert bit-identity, the speedup floor, "
        "resume exactness, and leak freedom; write nothing",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"results file (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    weights = ({"alpha": 1.0, "beta": 0.01}, {"alpha": 1.0, "beta": 0.5},
               {"alpha": 1.0, "beta": 1.0})
    if args.check_only:
        # One extra setting widens the naive loop's fixed-cost share so
        # the floor holds with margin even on slow, noisy CI machines.
        smoke_weights = weights + ({"alpha": 1.0, "beta": 0.1},)
        grid = _grid((36,), smoke_weights, seeds=(0, 1), iterations=2)
    else:
        grid = _grid((64, 144, 256), weights, seeds=(0, 1), iterations=3)
    resume_grid = _grid((36,), weights[:2], seeds=(0, 1), iterations=2)

    cells = []
    try:
        with tempfile.TemporaryDirectory(prefix="bench_sweep_") as tmp:
            workdir = Path(tmp)
            for transport in TRANSPORTS:
                print(f"transport={transport} ...", flush=True)
                cell = bench_transport(grid, transport, workdir)
                cells.append(cell)
                _print_cell(cell)
            check_resume_exactness(resume_grid, workdir)

        leaked = _leaked_segments()
        if leaked is not None:
            _check(not leaked, f"leaked shared-memory segments: {leaked}")
            print("no leaked shm segments", flush=True)

        for cell in cells:
            _check(
                cell["speedup"] >= SPEEDUP_FLOOR,
                f"transport={cell['transport']}: speedup "
                f"{cell['speedup']:.2f}x below the "
                f"{SPEEDUP_FLOOR:.1f}x acceptance floor",
            )
        shm_cell = next(c for c in cells if c["transport"] == "shm")
        _check(shm_cell["sweep"]["broadcast_hits"] > 0,
               "shm sweep recorded no broadcast hits")
        _check(shm_cell["sweep"]["result_bytes"] > 0,
               "shm sweep recorded no result bytes")
    except CheckFailure as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1

    if args.check_only:
        print("all checks passed")
        return 0

    payload = {
        "benchmark": "BENCH_sweep",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "note": (
            "sharded sweep driver vs the naive per-setting loop on "
            f"{JOBS}-worker spawn pools: the naive loop opens a fresh "
            "pool per scenario setting (paying spawn + import + "
            "re-broadcast each time), the sweep driver streams all "
            f"{SHARDS} shards through one pool whose shared-memory "
            "store lives for the whole sweep, so each topology is "
            "broadcast once; sweep.pools counts the pools the sweep "
            "actually created; streamed records are asserted bit-identical "
            "across naive/sweep/serial per transport, and a killed "
            "sweep resumed at a record boundary must merge "
            "byte-identically to an uninterrupted one; "
            "broadcast_hit_ratio counts store broadcasts served from "
            "the sweep's registry; dispatch_bytes/result_bytes are "
            "the serialized task and result payloads (the shm "
            "transport ships handles, not tensors, in both directions)"
        ),
        "floors": {"speedup": SPEEDUP_FLOOR},
        "grid": grid.to_dict(),
        "cells": cells,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
