#!/usr/bin/env python
"""Benchmark the execution backends and the LU-sharing hot path.

Two claims are measured (see ``docs/performance.md``):

1. **Factorization sharing** — an accepted step carries the line
   search's ``(pi, Z)``, so the optimizer charges one dense
   factorization per accepted step (the batched line-search evaluation)
   instead of the three a scratch rebuild costs.  That the carried
   state equals a scratch rebuild bit for bit is tested in
   ``tests/core/test_reuse_and_perf.py``.
2. **Backend scaling** — ``run_many`` over independent seeds returns
   bit-identical results on the serial/thread/process backends, with
   wall-clock scaling limited only by the machine's cores.

Results are written to ``benchmarks/results/BENCH_parallel.json`` with
the host's CPU count recorded, so a 1-core container reporting a ~1x
process-backend "speedup" is an honest measurement, not a regression.

Usage::

    python benchmarks/perf/bench_parallel.py               # full run
    python benchmarks/perf/bench_parallel.py --check-only  # CI smoke

``--check-only`` shrinks every size, asserts the correctness claims
(bit-identity, counter budgets), skips writing the results file, and
exits nonzero on any violation.
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

from repro import CostWeights, CoverageCost  # noqa: E402
from repro.core.perturbed import (  # noqa: E402
    PerturbedOptions,
    optimize_perturbed,
)
from repro.exec import BACKENDS, get_executor  # noqa: E402
from repro.experiments.runner import run_many  # noqa: E402
from repro.topology.random_gen import random_topology  # noqa: E402

DEFAULT_OUT = REPO / "benchmarks" / "results" / "BENCH_parallel.json"


class CheckFailure(AssertionError):
    """A correctness claim the benchmark asserts did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _cost(size: int, seed: int) -> CoverageCost:
    topology = random_topology(size, seed=seed)
    return CoverageCost(topology, CostWeights(alpha=1.0, beta=1.0))


def bench_factorization_sharing(size: int, iterations: int, seed: int):
    """Accepted steps reuse the line search's factorization work."""
    cost = _cost(size, seed)
    options = PerturbedOptions(
        max_iterations=iterations, record_history=False,
        stall_limit=iterations + 1,
    )
    started = time.perf_counter()
    result = optimize_perturbed(cost, seed=seed, options=options)
    entry = {
        "best_u_eps": float(result.best_u_eps),
        "seconds": time.perf_counter() - started,
        "accepted_steps": result.perf.accepted_steps,
        "accept_factorizations": result.perf.accept_factorizations,
        "factorizations": result.perf.factorizations,
        "per_accepted_step": result.perf.factorizations_per_accepted_step(),
    }
    _check(entry["accepted_steps"] > 0,
           "no accepted steps; sizes too small")
    _check(
        entry["per_accepted_step"] <= 1.0,
        f"reuse path charged {entry['per_accepted_step']} "
        "factorizations/accept (expected <= 1)",
    )
    return {
        "topology_size": size,
        "iterations": iterations,
        "seed": seed,
        "reuse": entry,
    }


def bench_backends(size: int, runs: int, iterations: int, seed: int,
                   jobs: int):
    """run_many across backends: bit-identical results, wall-clock."""
    cost = _cost(size, seed)
    timings = {}
    reference = None
    for backend in BACKENDS:
        with get_executor(backend, jobs=jobs) as executor:
            started = time.perf_counter()
            results = run_many(
                cost, "perturbed", runs=runs, iterations=iterations,
                seed=seed, executor=executor,
            )
            wall = time.perf_counter() - started
        u_eps = [float(result.best_u_eps) for result in results]
        if reference is None:
            reference = u_eps
        _check(
            u_eps == reference,
            f"{backend} backend results differ from serial",
        )
        timings[backend] = {"wall_seconds": wall, "best_u_eps": u_eps}
    serial_wall = timings["serial"]["wall_seconds"]
    for backend, entry in timings.items():
        entry["speedup_vs_serial"] = serial_wall / entry["wall_seconds"]
    return {
        "topology_size": size,
        "runs": runs,
        "iterations": iterations,
        "seed": seed,
        "jobs": jobs,
        "bit_identical_across_backends": True,
        "backends": timings,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check-only", action="store_true",
        help="tiny sizes, assert correctness claims, write nothing",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"results file (default: {DEFAULT_OUT})",
    )
    parser.add_argument("--size", type=int, default=10,
                        help="random-topology PoI count")
    parser.add_argument("--runs", type=int, default=8,
                        help="independent seeds for the backend sweep")
    parser.add_argument("--iterations", type=int, default=120)
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--jobs", type=int, default=os.cpu_count(),
                        help="workers for the pool backends")
    args = parser.parse_args(argv)

    if args.check_only:
        args.size, args.runs, args.iterations = 5, 2, 8

    try:
        print(f"factorization sharing: {args.size} PoIs, "
              f"{args.iterations} iterations ...", flush=True)
        sharing = bench_factorization_sharing(
            args.size, args.iterations, args.seed
        )
        print(f"  {sharing['reuse']['per_accepted_step']:.2f} "
              f"factorizations/accept, "
              f"{sharing['reuse']['seconds']:.2f}s")

        print(f"backend sweep: {args.runs} seeds x {args.iterations} "
              f"iterations, jobs={args.jobs} ...", flush=True)
        backends = bench_backends(
            args.size, args.runs, args.iterations, args.seed, args.jobs
        )
        for name, entry in backends["backends"].items():
            print(f"  {name:<8} {entry['wall_seconds']:.2f}s "
                  f"({entry['speedup_vs_serial']:.2f}x vs serial)")
    except CheckFailure as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1

    if args.check_only:
        print("all checks passed")
        return 0

    payload = {
        "benchmark": "BENCH_parallel",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "note": (
            "speedup_vs_serial is bounded by cpu_count; on a 1-core "
            "host the process backend measures pool overhead, not "
            "scaling"
        ),
        "factorization_sharing": sharing,
        "backend_sweep": backends,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
