#!/usr/bin/env python
"""Benchmark the sparse chain solvers against the dense reference at
large ``M``.

Three claims are measured (see ``docs/performance.md``):

1. **Equivalence** — on the scalable sparse-support families
   (``city-grid``, ``ring-of-grids``) the sparse linear algebra
   (``linalg="sparse"``) agrees with the dense reference
   (``linalg="dense"``) on the stationary distribution, the cost value,
   the projected gradient, and stacked line-search evaluations to tight
   relative tolerances.
2. **Dense regression** — on the paper evaluation topologies (no
   adjacency mask) an explicit ``linalg="dense"`` cost optimizes
   bit-identically to the default ``linalg="auto"`` cost, which resolves
   to dense there.
3. **Speedup** — one descent-iteration workload (state build, cost
   evaluation, projected gradient, one stacked 8-probe line-search
   batch) is at least ``SPEEDUP_FLOOR``x faster sparse than dense at
   ``M >= 256``.

Results are written to ``benchmarks/results/BENCH_largeM.json``.

Usage::

    python benchmarks/perf/bench_largeM.py               # full run
    python benchmarks/perf/bench_largeM.py --check-only  # CI smoke

``--check-only`` runs a small grid, asserts the equivalence and dense
regression claims (speedup floors are asserted on full runs only —
smoke sizes are too small for stable timing), skips writing the results
file, and exits nonzero on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    CostWeights,
    CoverageCost,
    optimize,
    paper_topology,
    scalable_topology,
)
from repro.core.initializers import paper_random_matrix  # noqa: E402
from repro.core.linesearch import feasible_step_bound  # noqa: E402

DEFAULT_OUT = REPO / "benchmarks" / "results" / "BENCH_largeM.json"

#: (family, M) grid of the full run.  Cells with M >= 256 carry the
#: speedup acceptance claim.
FULL_GRID = (
    ("city-grid", 64),
    ("city-grid", 256),
    ("ring-of-grids", 256),
    ("city-grid", 576),
)
SMOKE_GRID = (("city-grid", 36), ("ring-of-grids", 32))
SPEEDUP_FLOOR = 5.0
PROBES = 8


class CheckFailure(AssertionError):
    """A correctness claim the benchmark asserts did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _iteration_workload(cost, matrix):
    """One descent iteration's linear-algebra workload, timed per cell.

    State build (stationary + core factorization), cost evaluation,
    projected gradient, and one stacked ``PROBES``-probe line-search
    batch — the per-iteration arithmetic every optimizer variant runs.
    Returns the pieces the equivalence checks compare.
    """
    state = cost.build_state(matrix)
    breakdown = cost.evaluate(state)
    gradient = cost.projected_gradient(state)
    direction = -gradient
    bound = feasible_step_bound(matrix, direction)
    steps = bound * np.linspace(0.05, 0.65, PROBES)
    stack = matrix[None] + steps[:, None, None] * direction[None]
    values, pis, _, ok = cost.batch_evaluate(stack)
    return state.pi, breakdown.u_eps, gradient, values, ok


def _relative(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return float(np.abs(a - b).max() / scale)


def bench_cell(family: str, size: int, seed: int, repeats: int = 3):
    """Time the dense and sparse backends on one scalable topology."""
    topology = scalable_topology(family, size, seed=seed)
    weights = CostWeights(alpha=1.0, beta=1e-3)
    costs = {
        "dense": CoverageCost(topology, weights, linalg="dense"),
        "sparse": CoverageCost(topology, weights, linalg="sparse"),
    }
    matrix = paper_random_matrix(
        size, seed=seed + 1, support=topology.adjacency
    )

    timings = {}
    outputs = {}
    for name, cost in costs.items():
        best = np.inf
        for _ in range(repeats):
            started = time.perf_counter()
            outputs[name] = _iteration_workload(cost, matrix)
            best = min(best, time.perf_counter() - started)
        timings[name] = best

    pi_d, u_d, grad_d, vals_d, ok_d = outputs["dense"]
    pi_s, u_s, grad_s, vals_s, ok_s = outputs["sparse"]
    pi_diff = float(np.abs(pi_d - pi_s).max())
    u_diff = abs(u_d - u_s) / max(abs(u_d), 1e-300)
    grad_diff = _relative(grad_d, grad_s)
    _check(np.array_equal(ok_d, ok_s),
           f"{family}/{size}: probe feasibility masks disagree")
    both = ok_d & ok_s
    vals_diff = _relative(vals_d[both], vals_s[both]) if both.any() else 0.0
    _check(pi_diff < 1e-10,
           f"{family}/{size}: pi diff {pi_diff:.2e} above 1e-10")
    _check(u_diff < 1e-9,
           f"{family}/{size}: u_eps rel diff {u_diff:.2e} above 1e-9")
    _check(grad_diff < 1e-6,
           f"{family}/{size}: gradient rel diff {grad_diff:.2e} "
           "above 1e-6")
    _check(vals_diff < 1e-9,
           f"{family}/{size}: batch value rel diff {vals_diff:.2e} "
           "above 1e-9")

    speedup = timings["dense"] / timings["sparse"]
    return {
        "family": family,
        "size": size,
        "seed": seed,
        "probes": PROBES,
        "dense_seconds": timings["dense"],
        "sparse_seconds": timings["sparse"],
        "speedup": speedup,
        "pi_diff": pi_diff,
        "u_eps_rel_diff": float(u_diff),
        "gradient_rel_diff": grad_diff,
        "batch_values_rel_diff": vals_diff,
    }


def check_dense_regression(seed: int) -> None:
    """``linalg="dense"`` must match ``linalg="auto"`` bit for bit on a
    paper topology (auto resolves dense there — no adjacency mask)."""
    topology = paper_topology(1)
    weights = CostWeights(alpha=1.0, beta=1.0)
    options = {"max_iterations": 25, "stall_limit": 26}
    runs = {}
    for mode in ("auto", "dense"):
        cost = CoverageCost(topology, weights, linalg=mode)
        _check(cost.resolved_linalg == "dense",
               f"paper topology resolved {mode!r} to "
               f"{cost.resolved_linalg!r}, expected 'dense'")
        runs[mode] = optimize(
            cost, method="perturbed", seed=seed, options=options
        )
    _check(
        runs["auto"].best_matrix.tobytes()
        == runs["dense"].best_matrix.tobytes()
        and runs["auto"].best_u_eps == runs["dense"].best_u_eps,
        "paper-topology run differs between linalg='auto' and 'dense'",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check-only", action="store_true",
        help="small grid, assert equivalence claims, write nothing",
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
        check_dense_regression(args.seed)
        print("dense regression: linalg='dense' bit-identical to 'auto' "
              "on paper topology 1", flush=True)
        for family, size in grid:
            print(f"{family} M={size} ...", flush=True)
            cell = bench_cell(family, size, args.seed)
            cells.append(cell)
            print(
                f"  dense {cell['dense_seconds']:.3f}s, sparse "
                f"{cell['sparse_seconds']:.3f}s -> "
                f"{cell['speedup']:.1f}x; grad rel diff "
                f"{cell['gradient_rel_diff']:.1e}"
            )
        if not args.check_only:
            for cell in cells:
                if cell["size"] >= 256:
                    _check(
                        cell["speedup"] >= SPEEDUP_FLOOR,
                        f"{cell['family']}/{cell['size']}: speedup "
                        f"{cell['speedup']:.1f}x below the "
                        f"{SPEEDUP_FLOOR:.1f}x acceptance floor",
                    )
    except CheckFailure as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1

    if args.check_only:
        print("all checks passed")
        return 0

    payload = {
        "benchmark": "BENCH_largeM",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "note": (
            "speedup = dense_seconds / sparse_seconds for one descent "
            "iteration's linear algebra (state build, evaluation, "
            "projected gradient, stacked 8-probe line-search batch) on "
            "the scalable sparse-support families; equivalence of pi, "
            "u_eps, projected gradients, and batch values is asserted "
            "per cell; cells with M >= 256 carry the >= "
            f"{SPEEDUP_FLOOR:.0f}x acceptance floor"
        ),
        "cells": cells,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
