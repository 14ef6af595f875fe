#!/usr/bin/env python
"""Benchmark the team engine against its per-event oracle.

The oracle is ``tests/oracles/simulation.py::simulate_team``, one Python
iteration per transition.  Two claims are measured (see
``docs/performance.md`` and ``docs/simulation.md``):

1. **Equivalence** — for every benchmarked configuration the engine and
   the oracle return bit-identical :class:`TeamSimulationResult` objects
   (every field equal, nan-positions included), and the result passes
   the internal union cross-checks of
   :func:`repro.multisensor.analytic.check_team_result`.
2. **Speedup** — the engine (per-sensor pre-sampled paths + shared
   interval kernels) beats the per-event oracle; the acceptance floor is
   5x on every cell with K >= 4 sensors.

Results are written to ``benchmarks/results/BENCH_team.json`` (the
oracle's timings under ``oracle_seconds``).  Chord tables are warmed
before timing so both are measured on the per-transition work, not the
shared O(M^3) geometry precompute.

Usage::

    python benchmarks/perf/bench_team.py               # full run
    python benchmarks/perf/bench_team.py --check-only  # CI smoke

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

from repro.multisensor import check_team_result, simulate_team  # noqa: E402
from repro.topology.random_gen import random_topology  # noqa: E402
from tests.oracles import simulation as oracle  # noqa: E402

DEFAULT_OUT = REPO / "benchmarks" / "results" / "BENCH_team.json"

#: (PoI count, team size K, horizon seconds) grid of the full run.  The
#: two K >= 4 cells carry the acceptance claim: >= 5x each.
FULL_GRID = (
    (8, 2, 1_500_000.0),
    (16, 4, 2_000_000.0),
    (32, 8, 2_500_000.0),
)
SMOKE_GRID = ((5, 2, 2_000.0), (5, 4, 2_000.0))
SPEEDUP_FLOOR = 5.0


class CheckFailure(AssertionError):
    """A correctness claim the benchmark asserts did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _results_identical(reference, vectorized) -> list:
    """Names of TeamSimulationResult fields the engine and the oracle
    disagree on."""
    mismatched = []
    for field in fields(reference):
        expected = np.asarray(getattr(reference, field.name))
        actual = np.asarray(getattr(vectorized, field.name))
        equal_nan = expected.dtype.kind == "f"
        if expected.shape != actual.shape or not np.array_equal(
            actual, expected, equal_nan=equal_nan
        ):
            mismatched.append(field.name)
    return mismatched


def bench_cell(size: int, sensors: int, horizon: float, seed: int,
               repeats: int = 3):
    """Time the oracle and the engine on one (size, K, horizon) cell.

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
    matrices = [matrix] * sensors
    topology.chord_table()  # warm the shared geometry outside the timing

    timings = {}
    results = {}
    for name, simulate in (
        ("oracle", oracle.simulate_team), ("vectorized", simulate_team)
    ):
        best = np.inf
        for _ in range(repeats):
            started = time.perf_counter()
            results[name] = simulate(topology, matrices, horizon, seed=seed)
            best = min(best, time.perf_counter() - started)
        timings[name] = best

    mismatched = _results_identical(results["oracle"], results["vectorized"])
    _check(
        not mismatched,
        f"{size} PoIs / K={sensors}: engine and oracle disagree on "
        f"{', '.join(mismatched)}",
    )
    try:
        check_team_result(results["vectorized"])
    except ValueError as error:
        raise CheckFailure(str(error)) from error
    speedup = timings["oracle"] / timings["vectorized"]
    return {
        "topology_size": size,
        "sensors": sensors,
        "horizon": horizon,
        "mean_transitions_per_sensor": float(
            results["vectorized"].transitions.mean()
        ),
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
    args = parser.parse_args(argv)

    grid = SMOKE_GRID if args.check_only else FULL_GRID

    cells = []
    try:
        for size, sensors, horizon in grid:
            print(f"{size} PoIs x K={sensors} x {horizon:.0f} s ...",
                  flush=True)
            cell = bench_cell(size, sensors, horizon, args.seed)
            cells.append(cell)
            print(f"  oracle {cell['oracle_seconds']:.2f}s, engine "
                  f"{cell['vectorized_seconds']:.2f}s -> "
                  f"{cell['speedup']:.1f}x, bit-identical")
        if not args.check_only:
            for cell in cells:
                if cell["sensors"] >= 4:
                    _check(
                        cell["speedup"] >= SPEEDUP_FLOOR,
                        f"K={cell['sensors']} speedup "
                        f"{cell['speedup']:.1f}x below the "
                        f"{SPEEDUP_FLOOR:.0f}x acceptance floor",
                    )
    except CheckFailure as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1

    if args.check_only:
        print("all checks passed")
        return 0

    payload = {
        "benchmark": "BENCH_team",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "note": (
            "speedup = oracle_seconds / vectorized_seconds per cell "
            "(best of 3), oracle_seconds timing the per-event reference "
            "simulator in tests/oracles (test equipment, not a shipped "
            "engine); "
            "engine and oracle produce bit-identical "
            "TeamSimulationResult values, checked field-by-field each "
            "run; cells with K >= 4 enforce the 5x acceptance floor"
        ),
        "cells": cells,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
