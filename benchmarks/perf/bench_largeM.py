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
4. **Support-valued iterations** — the sparse descent's gradient,
   noisy projection and step bound equal the dense-array assembly of
   ``tests/oracles/gradient.py`` byte for byte.  The full run also
   times a whole descent (``DESCENT``: city-grid M = 576, 2 walks x 20
   perturbed iterations, ``linalg="auto"``) with a per-layer split —
   gradient, direction (noise and projection), line search, acceptance
   — that adds up to its wall time, and checks that the timed walks
   return exactly what ``repro.optimize`` returns.
5. **Factorization budget** — a sparse chain state owns one LU, and
   line-search probes refine against their ray's base: a seeded
   ``BUDGET_ITERATIONS``-iteration perturbed walk on city-grid M = 64
   performs at most ``iterations + 2`` sparse LUs (a count, not a
   time, so it is asserted on every run).

Results are written to ``benchmarks/results/BENCH_largeM.json``.

Usage::

    python benchmarks/perf/bench_largeM.py               # full run
    python benchmarks/perf/bench_largeM.py --check-only  # CI smoke

``--check-only`` runs a small grid, asserts the equivalence, oracle,
factorization-budget and dense regression claims (speedup floors are
asserted on full runs only — smoke sizes are too small for stable
timing), skips writing the results file, and exits nonzero on any
violation.
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
for entry in (REPO / "src", REPO):  # the package, and tests.oracles
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

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
from repro.core.perturbed import (  # noqa: E402
    AdaptiveOptions,
    PerturbedOptions,
    PerturbedWalk,
    advance_walk,
)
from repro.utils import perf  # noqa: E402
from tests.oracles import gradient as oracle  # noqa: E402

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
#: The full-descent cell: the ``citygrid_sparse`` end-to-end workload's
#: shape (its weights, 2 walks, 20 iterations, no early stop).
DESCENT = ("city-grid", 576)
SMOKE_DESCENT = ("city-grid", 64)
DESCENT_WALKS = 2
DESCENT_ITERATIONS = 20
DESCENT_WEIGHTS = CostWeights(alpha=1.0, beta=1.0)
#: Layers of the descent cell, in iteration order; they partition the
#: timed iterations, so their seconds add up to ``wall_seconds``.
LAYERS = ("gradient", "direction", "line_search", "acceptance")
#: The factorization-budget walk: a perturbed walk of this many
#: iterations on ``SMOKE_DESCENT`` may factor at most ``iterations + 2``
#: sparse LUs (its start state, one per accepted state, and slack for
#: line-search probes too far from their ray's base to refine).
BUDGET_ITERATIONS = 6


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


def check_oracle(family: str, size: int, seed: int) -> None:
    """The sparse iteration equals ``tests/oracles/gradient.py`` byte
    for byte: gradient, projected gradient, and one walk iteration's
    direction values, gradient norm, step bound and RNG position."""
    cost = CoverageCost(
        scalable_topology(family, size, seed=seed),
        CostWeights(alpha=1.0, beta=1e-3, energy_weight=0.2),
        linalg="sparse",
    )
    layout = cost.ray_layout()
    state = cost.build_state(
        paper_random_matrix(size, seed=seed + 1, support=cost.support)
    )
    _check(
        cost.gradient(state).tobytes()
        == oracle.total_derivative(state, cost.terms).tobytes(),
        f"{family}/{size}: sparse gradient differs from the oracle",
    )
    _check(
        cost.projected_gradient(state).tobytes()
        == oracle.projected_gradient(cost, state).tobytes(),
        f"{family}/{size}: projected gradient differs from the oracle",
    )
    for options in (PerturbedOptions(), AdaptiveOptions()):
        walk = PerturbedWalk(cost, state, seed, options)
        rng = np.random.default_rng(seed)
        spec = walk.begin_iteration()
        direction, norm, bound = oracle.begin_iteration(
            cost, state, rng, options
        )
        _check(
            walk._direction.tobytes() == layout.values(direction).tobytes()
            and walk._gradient_norm == norm and spec.bound == bound
            and walk.rng.bit_generator.state == rng.bit_generator.state,
            f"{family}/{size}: {type(options).__name__} iteration differs "
            "from the oracle",
        )


def _timed(clock, fn, seconds):
    """``fn``, appending the seconds of each call to ``seconds``."""

    def timed(*args, **kwargs):
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds.append(clock() - started)

    return timed


def _timed_walk(cost, seed, options, layers):
    """Drive one walk with :func:`~repro.core.perturbed.advance_walk`,
    adding each layer's seconds to ``layers``; returns the result.

    The walk's ``begin_iteration`` and ``complete_iteration`` and the
    cost's ``gradient_values`` are timed on the instances: the gradient
    is its own layer, the rest of ``begin_iteration`` (noise,
    projection, ray) is the direction, ``complete_iteration`` the
    acceptance, and the remainder of each iteration the line search.
    """
    clock = time.perf_counter
    gradient, begin, complete = [], [], []
    walk = PerturbedWalk(cost, None, seed, options)
    cost.gradient_values = _timed(clock, cost.gradient_values, gradient)
    walk.begin_iteration = _timed(clock, walk.begin_iteration, begin)
    walk.complete_iteration = _timed(
        clock, walk.complete_iteration, complete
    )
    try:
        while True:
            started = clock()
            if not advance_walk(cost, walk, options):
                break
            seconds = clock() - started
            layers["gradient"] += gradient[-1]
            layers["direction"] += begin[-1] - gradient[-1]
            layers["acceptance"] += complete[-1]
            layers["line_search"] += seconds - begin[-1] - complete[-1]
    finally:
        del cost.gradient_values
    return walk.result()


def descent_cell(family: str, size: int, seed: int):
    """Time a whole sparse descent, layer by layer.

    ``DESCENT_WALKS`` perturbed walks of ``DESCENT_ITERATIONS``
    iterations (no early stop) on one ``linalg="auto"`` cost; the walks
    must return exactly what ``repro.optimize`` returns for their seeds.
    """
    cost = CoverageCost(
        scalable_topology(family, size), DESCENT_WEIGHTS, linalg="auto"
    )
    _check(cost.resolved_linalg == "sparse",
           f"{family}/{size}: descent cell resolved dense")
    options = PerturbedOptions(
        max_iterations=DESCENT_ITERATIONS,
        stall_limit=DESCENT_ITERATIONS + 1,
        record_history=False,
    )
    seeds = [seed + index for index in range(DESCENT_WALKS)]
    optimize(cost, method="perturbed", seed=seeds[0],
             options={"max_iterations": 1})  # warm the template
    layers = dict.fromkeys(LAYERS, 0.0)
    started = time.perf_counter()
    results = [_timed_walk(cost, s, options, layers) for s in seeds]
    elapsed = time.perf_counter() - started
    for walk_seed, result in zip(seeds, results):
        reference = optimize(
            cost, method="perturbed", seed=walk_seed, options=options
        )
        _check(
            result.matrix.tobytes() == reference.matrix.tobytes()
            and result.best_u_eps == reference.best_u_eps,
            f"{family}/{size}: timed walk {walk_seed} differs from "
            "repro.optimize",
        )
    wall = sum(layers.values())
    return {
        "family": family,
        "size": size,
        "walks": DESCENT_WALKS,
        "iterations": DESCENT_ITERATIONS,
        "seeds": seeds,
        "wall_seconds": wall,
        "setup_seconds": elapsed - wall,
        "layers": layers,
        "best_u_eps": [result.best_u_eps for result in results],
    }


def check_factorization_budget(seed: int) -> int:
    """Count the sparse LUs of a seeded ``BUDGET_ITERATIONS``-iteration
    perturbed walk on ``SMOKE_DESCENT``; returns the count."""
    family, size = SMOKE_DESCENT
    cost = CoverageCost(
        scalable_topology(family, size), DESCENT_WEIGHTS, linalg="auto"
    )
    options = PerturbedOptions(
        max_iterations=BUDGET_ITERATIONS,
        stall_limit=BUDGET_ITERATIONS + 1,
    )
    with perf.perf_scope() as counters:
        result = optimize(cost, method="perturbed", seed=seed,
                          options=options)
    count = counters.sparse_factorizations
    _check(result.iterations == BUDGET_ITERATIONS,
           f"budget walk stopped after {result.iterations} iterations")
    _check(
        count <= BUDGET_ITERATIONS + 2,
        f"{family}/{size}: {BUDGET_ITERATIONS}-iteration walk made "
        f"{count} sparse LUs, budget {BUDGET_ITERATIONS + 2}",
    )
    return count


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
        lus = check_factorization_budget(args.seed)
        print(f"factorization budget: {lus} sparse LUs in a "
              f"{BUDGET_ITERATIONS}-iteration walk on "
              f"{SMOKE_DESCENT[0]} M={SMOKE_DESCENT[1]} (at most "
              f"{BUDGET_ITERATIONS + 2})", flush=True)
        for family, size in SMOKE_GRID:
            check_oracle(family, size, args.seed)
        print("support-valued iterations: bit-identical to the dense "
              "oracle on " + ", ".join(
                  f"{family} M={size}" for family, size in SMOKE_GRID),
              flush=True)
        family, size = SMOKE_DESCENT if args.check_only else DESCENT
        descent = descent_cell(family, size, args.seed)
        print(
            f"descent {family} M={size}: {descent['wall_seconds']:.3f}s "
            "(" + ", ".join(
                f"{name} {seconds:.3f}s"
                for name, seconds in descent["layers"].items()
            ) + ")",
            flush=True,
        )
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
            f"{SPEEDUP_FLOOR:.0f}x acceptance floor.  descent = "
            f"{DESCENT_WALKS} perturbed walks x {DESCENT_ITERATIONS} "
            "iterations, linalg='auto' (sparse), one run; its layers "
            "partition the timed iterations (wall_seconds), and "
            "setup_seconds is the walks' initial states"
        ),
        "descent": descent,
        "cells": cells,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
