#!/usr/bin/env python
"""Benchmark the simulation engine against its per-step oracle.

The oracle is ``tests/oracles/simulation.py::simulate_schedule``, one
Python iteration per transition.  Two claims are measured (see
``docs/performance.md``):

1. **Equivalence** — for every benchmarked configuration the engine and
   the oracle return bit-identical :class:`SimulationResult` objects
   (same sampled path, every metric equal).
2. **Speedup** — the engine (pre-sampled paths + array interval
   arithmetic) beats the per-step oracle by a growing margin as the
   transition count rises; the acceptance floor is 5x at 64 PoIs and
   100k transitions.

Results are written to ``benchmarks/results/BENCH_sim.json`` (the
oracle's timings under ``oracle_seconds``).  Chord tables are warmed
before timing so both are measured on the per-transition work, not the
shared O(M^3) geometry precompute (which is cached on the topology and
paid once per process).

Usage::

    python benchmarks/perf/bench_sim.py               # full run
    python benchmarks/perf/bench_sim.py --check-only  # CI smoke

``--check-only`` shrinks every size, asserts the equivalence claim,
skips writing the results file, and exits nonzero on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import fields
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
for entry in (REPO / "src", REPO):  # the package, and tests.oracles
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import numpy as np  # noqa: E402

from repro.simulation.engine import (  # noqa: E402
    SimulationOptions,
    simulate_schedule,
)
from repro.topology.random_gen import random_topology  # noqa: E402
from tests.oracles import simulation as oracle  # noqa: E402

DEFAULT_OUT = REPO / "benchmarks" / "results" / "BENCH_sim.json"

#: (PoI count, measured transitions) grid of the full run.  The largest
#: cell carries the acceptance claim: >= 5x at 64 PoIs / 100k
#: transitions.
FULL_GRID = ((8, 20_000), (16, 50_000), (64, 100_000))
SMOKE_GRID = ((5, 400),)


class CheckFailure(AssertionError):
    """A correctness claim the benchmark asserts did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _results_identical(reference, vectorized) -> list:
    """Names of SimulationResult fields the engine and the oracle
    disagree on."""
    mismatched = []
    for field in fields(reference):
        expected = getattr(reference, field.name)
        actual = getattr(vectorized, field.name)
        if expected is None or actual is None:
            if expected is not actual:
                mismatched.append(field.name)
            continue
        expected = np.asarray(expected)
        actual = np.asarray(actual)
        equal_nan = expected.dtype.kind == "f"
        if expected.shape != actual.shape or not np.array_equal(
            actual, expected, equal_nan=equal_nan
        ):
            mismatched.append(field.name)
    return mismatched


def bench_cell(size: int, transitions: int, seed: int, warmup: int,
               repeats: int = 3):
    """Time the oracle and the engine on one (size, transitions) cell.

    Each runs ``repeats`` times and reports the fastest wall
    clock (steady state: the first run additionally pays allocator and
    page-fault costs that are not per-simulation work).
    """
    topology = random_topology(
        size, area_side=400.0 * np.sqrt(size), seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    raw = rng.random((size, size)) + np.eye(size)
    matrix = raw / raw.sum(axis=1, keepdims=True)
    topology.chord_table()  # warm the shared geometry outside the timing

    timings = {}
    results = {}
    runs = {
        "oracle": lambda: oracle.simulate_schedule(
            topology, matrix, transitions, seed=seed, warmup=warmup,
            record_path=True,
        ),
        "vectorized": lambda: simulate_schedule(
            topology, matrix, transitions, seed=seed,
            options=SimulationOptions(warmup=warmup, record_path=True),
        ),
    }
    for name, run in runs.items():
        best = np.inf
        for _ in range(repeats):
            started = time.perf_counter()
            results[name] = run()
            best = min(best, time.perf_counter() - started)
        timings[name] = best

    mismatched = _results_identical(results["oracle"], results["vectorized"])
    _check(
        not mismatched,
        f"{size} PoIs / {transitions} transitions: engine and oracle "
        "disagree on "
        f"{', '.join(mismatched)}",
    )
    speedup = timings["oracle"] / timings["vectorized"]
    return {
        "topology_size": size,
        "transitions": transitions,
        "warmup": warmup,
        "seed": seed,
        "oracle_seconds": timings["oracle"],
        "vectorized_seconds": timings["vectorized"],
        "speedup": speedup,
        "bit_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check-only", action="store_true",
        help="tiny sizes, assert the equivalence claim, write nothing",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"results file (default: {DEFAULT_OUT})",
    )
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--warmup", type=int, default=1_000,
                        help="warmup transitions per simulation")
    args = parser.parse_args(argv)

    grid = SMOKE_GRID if args.check_only else FULL_GRID
    if args.check_only:
        args.warmup = min(args.warmup, 50)

    cells = []
    try:
        for size, transitions in grid:
            print(f"{size} PoIs x {transitions} transitions ...",
                  flush=True)
            cell = bench_cell(size, transitions, args.seed, args.warmup)
            cells.append(cell)
            print(f"  oracle {cell['oracle_seconds']:.2f}s, engine "
                  f"{cell['vectorized_seconds']:.2f}s -> "
                  f"{cell['speedup']:.1f}x, bit-identical")
        if not args.check_only:
            flagship = cells[-1]
            _check(
                flagship["speedup"] >= 5.0,
                f"flagship speedup {flagship['speedup']:.1f}x below the "
                "5x acceptance floor",
            )
    except CheckFailure as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1

    if args.check_only:
        print("all checks passed")
        return 0

    payload = {
        "benchmark": "BENCH_sim",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "note": (
            "speedup = oracle_seconds / vectorized_seconds per cell "
            "(best of 3), oracle_seconds timing the per-step reference "
            "simulator in tests/oracles (test equipment, not a shipped "
            "engine); "
            "engine and oracle produce bit-identical SimulationResult "
            "values, checked field-by-field each run"
        ),
        "cells": cells,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
