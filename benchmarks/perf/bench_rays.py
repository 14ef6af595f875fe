#!/usr/bin/env python
"""Benchmark the in-process multi-start against the per-start loop.

The loop is ``tests/oracles/multistart.py::optimize_multistart``: the
same portfolio and RNG streams, then one ``optimize_perturbed`` per
start.  ``repro.core.multistart.optimize_multistart`` runs the starts
in lockstep instead.  Three claims are measured (see
``docs/performance.md`` and ``docs/api.md``):

1. **Equivalence** — for every benchmarked configuration the driver
   returns per-start runs bit-identical to the loop's: same best
   values, same matrix bytes, same per-iteration histories, same perf
   accounting.
2. **Speedup (dense)** — fusing every active start's line-search stage
   (geometric sweep, trisection rounds, fallback probes) into one
   stacked :meth:`CoverageCost.batch_evaluate` beats running the starts
   one after another; the acceptance floor is 1.5x on every dense cell
   with ``random_starts >= 4``.
3. **Memory (sparse)** — on a sparse city-grid the probes do not fuse,
   so the driver runs one whole walk per start, one after another, as
   the loop does; the cell reports wall time and the ``tracemalloc``
   peak of both, with no floor, to show the driver holds no more than
   the loop.

Results are written to ``benchmarks/results/BENCH_rays.json``.

Usage::

    python benchmarks/perf/bench_rays.py               # full run
    python benchmarks/perf/bench_rays.py --check-only  # CI smoke

``--check-only`` shrinks the iteration budgets, asserts the equivalence
claim, skips writing the results file, and exits nonzero on any
violation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
for entry in (REPO / "src", REPO):  # the package, and tests.oracles
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro import CostWeights, CoverageCost, paper_topology  # noqa: E402
from repro.core.multistart import optimize_multistart  # noqa: E402
from repro.core.perturbed import PerturbedOptions  # noqa: E402
from repro.topology.library import scalable_topology  # noqa: E402
from tests.oracles import multistart as oracle  # noqa: E402

DEFAULT_OUT = REPO / "benchmarks" / "results" / "BENCH_rays.json"

#: (paper topology id, random_starts, iterations) dense cells of the
#: full run.  Cells with random_starts >= 4 carry the acceptance claim:
#: >= 1.5x.
FULL_GRID = (
    (1, 2, 60),
    (1, 4, 60),
    (2, 6, 40),
)
SMOKE_GRID = ((1, 2, 6), (1, 4, 5))
SPEEDUP_FLOOR = 1.5

#: (city-grid size, random_starts, iterations) sparse memory cell.
FULL_SPARSE = (144, 1, 8)
SMOKE_SPARSE = (64, 1, 3)

PERF_FIELDS = (
    "accepted_steps", "accept_factorizations", "factorizations",
    "state_builds", "states_reused", "batch_calls", "batch_matrices",
    "sparse_factorizations",
)


class CheckFailure(AssertionError):
    """A correctness claim the benchmark asserts did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _runs_identical(reference, driver) -> list:
    """Descriptions of any per-start mismatches between the two."""
    mismatched = []
    if reference.start_labels != driver.start_labels:
        mismatched.append("start_labels")
    for index, (run_a, run_b) in enumerate(
        zip(reference.runs, driver.runs)
    ):
        label = reference.start_labels[index]
        if run_a.best_u_eps != run_b.best_u_eps:
            mismatched.append(f"{label}: best_u_eps")
        if run_a.best_matrix.tobytes() != run_b.best_matrix.tobytes():
            mismatched.append(f"{label}: best_matrix")
        if run_a.iterations != run_b.iterations:
            mismatched.append(f"{label}: iterations")
        if run_a.history != run_b.history:
            mismatched.append(f"{label}: history")
        for name in PERF_FIELDS:
            if getattr(run_a.perf, name) != getattr(run_b.perf, name):
                mismatched.append(f"{label}: perf.{name}")
    return mismatched


def _time_both(cost, random_starts, iterations, seed, repeats):
    """Fastest wall time of ``repeats`` runs each, loop and driver
    interleaved.  Returns ``(timings, results, runners, mismatched)``:
    the last runs' results, the two zero-argument runners, and
    :func:`_runs_identical`'s findings.
    """
    options = PerturbedOptions(
        max_iterations=iterations,
        stall_limit=iterations + 1,
        record_history=True,
    )
    runners = {
        "loop": lambda: oracle.optimize_multistart(
            cost, random_starts=random_starts, seed=seed, options=options,
        ),
        "driver": lambda: optimize_multistart(
            cost, random_starts=random_starts, seed=seed, options=options,
        ),
    }
    timings = {name: np.inf for name in runners}
    results = {}
    for _ in range(repeats):
        for name, run in runners.items():
            started = time.perf_counter()
            results[name] = run()
            timings[name] = min(
                timings[name], time.perf_counter() - started
            )
    mismatched = _runs_identical(results["loop"], results["driver"])
    return timings, results, runners, mismatched


def _peak_bytes(run) -> int:
    """``tracemalloc`` peak of one call of ``run`` (results dropped)."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_cell(paper_id: int, random_starts: int, iterations: int,
               seed: int, repeats: int = 3):
    """Time both on one dense (topology, starts, budget) configuration.

    Each runs ``repeats`` times, interleaved, and reports the fastest
    wall clock (steady state: the first run additionally pays allocator
    and import costs that are not per-iteration work).
    """
    cost = CoverageCost(
        paper_topology(paper_id), CostWeights(alpha=1.0, beta=1.0)
    )
    timings, results, _, mismatched = _time_both(
        cost, random_starts, iterations, seed, repeats
    )
    _check(
        not mismatched,
        f"topology {paper_id} / starts={random_starts}: driver and "
        f"loop disagree on {', '.join(mismatched)}",
    )
    return {
        "paper_topology": paper_id,
        "size": results["loop"].best.best_matrix.shape[0],
        "random_starts": random_starts,
        "portfolio_size": len(results["loop"].runs),
        "iterations": iterations,
        "seed": seed,
        "loop_seconds": timings["loop"],
        "driver_seconds": timings["driver"],
        "speedup": timings["loop"] / timings["driver"],
        "best_u_eps": float(results["driver"].best.best_u_eps),
        "bit_identical": True,
    }


def bench_sparse_cell(size: int, random_starts: int, iterations: int,
                      seed: int, repeats: int = 3):
    """Wall time and ``tracemalloc`` peak of both on a sparse city-grid.

    Peaks come from separate, untimed runs after the timed ones
    (tracing slows allocation), so the topology and the cost's
    stationary template are already built and both peaks measure the
    descent, not the shared precompute.  Each peak is the smallest of
    ``repeats`` interleaved runs: allocator free lists move a single
    run's peak by a few KiB.
    """
    cost = CoverageCost(
        scalable_topology("city-grid", size),
        CostWeights(alpha=1.0, beta=1.0), linalg="sparse",
    )
    timings, results, runners, mismatched = _time_both(
        cost, random_starts, iterations, seed, repeats
    )
    _check(
        not mismatched,
        f"city-grid {size} / starts={random_starts}: driver and loop "
        f"disagree on {', '.join(mismatched)}",
    )
    portfolio = len(results["loop"].runs)
    del results
    peaks = {name: np.inf for name in runners}
    for _ in range(repeats):
        for name, run in runners.items():
            peaks[name] = min(peaks[name], _peak_bytes(run))
    return {
        "family": "city-grid",
        "size": size,
        "linalg": "sparse",
        "random_starts": random_starts,
        "portfolio_size": portfolio,
        "iterations": iterations,
        "seed": seed,
        "loop_seconds": timings["loop"],
        "driver_seconds": timings["driver"],
        "loop_peak_mib": peaks["loop"] / 2**20,
        "driver_peak_mib": peaks["driver"] / 2**20,
        "bit_identical": True,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check-only", action="store_true",
        help="tiny budgets, assert the equivalence claim, write nothing",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"results file (default: {DEFAULT_OUT})",
    )
    parser.add_argument("--seed", type=int, default=2010)
    args = parser.parse_args(argv)

    grid = SMOKE_GRID if args.check_only else FULL_GRID
    sparse = SMOKE_SPARSE if args.check_only else FULL_SPARSE

    cells = []
    try:
        for paper_id, starts, iterations in grid:
            print(
                f"topology {paper_id} x starts={starts} x "
                f"{iterations} iterations ...",
                flush=True,
            )
            cell = bench_cell(paper_id, starts, iterations, args.seed)
            cells.append(cell)
            print(
                f"  loop {cell['loop_seconds']:.2f}s, driver "
                f"{cell['driver_seconds']:.2f}s -> "
                f"{cell['speedup']:.1f}x, bit-identical "
                f"({cell['portfolio_size']} portfolio starts)"
            )
        if not args.check_only:
            for cell in cells:
                if cell["random_starts"] >= 4:
                    _check(
                        cell["speedup"] >= SPEEDUP_FLOOR,
                        f"starts={cell['random_starts']} speedup "
                        f"{cell['speedup']:.1f}x below the "
                        f"{SPEEDUP_FLOOR:.1f}x acceptance floor",
                    )
        size, starts, iterations = sparse
        print(
            f"sparse city-grid {size} x starts={starts} x {iterations} "
            "iterations ...",
            flush=True,
        )
        sparse_cell = bench_sparse_cell(size, starts, iterations, args.seed)
        print(
            f"  loop {sparse_cell['loop_seconds']:.2f}s / "
            f"{sparse_cell['loop_peak_mib']:.3f} MiB peak, driver "
            f"{sparse_cell['driver_seconds']:.2f}s / "
            f"{sparse_cell['driver_peak_mib']:.3f} MiB peak, "
            f"bit-identical ({sparse_cell['portfolio_size']} starts)"
        )
    except CheckFailure as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1

    if args.check_only:
        print("all checks passed")
        return 0

    payload = {
        "benchmark": "BENCH_rays",
        "machine": {
            "platform": platform.platform(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
        "note": (
            "loop = tests/oracles/multistart.py (one optimize_perturbed "
            "per start), driver = repro.core.multistart."
            "optimize_multistart (in-process, starts in lockstep); "
            "speedup = loop_seconds / driver_seconds per dense cell, "
            "fastest of 3 interleaved runs; per-start runs bit-identical "
            "(histories, matrix bytes, perf accounting) checked each "
            "run; dense cells with random_starts >= 4 enforce the 1.5x "
            "floor; the sparse cell has no floor and reports "
            "tracemalloc peaks, smallest of 3 separate untimed runs"
        ),
        "cells": cells,
        "sparse_cell": sparse_cell,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
