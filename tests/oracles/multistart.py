"""Reference multi-start: the portfolio's starts one after another.

:func:`optimize_multistart` draws the portfolio from ``seed``, spawns
one RNG stream per start, and runs a dense cost's walks in lockstep.  This
oracle makes the same draws and then runs one plain
:func:`~repro.core.perturbed.optimize_perturbed` per start, so every
run it returns is what the in-process driver must return bit for bit
(histories, matrices, checkpoints and per-run perf counts).
``tests/core/test_lockstep.py`` holds the driver to it, and
``benchmarks/perf/bench_rays.py`` times the driver against it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cost import CoverageCost
from repro.core.multistart import (
    DEFAULT_DELTA_GRID,
    MultiStartResult,
    default_start_portfolio,
)
from repro.core.perturbed import PerturbedOptions, optimize_perturbed
from repro.utils.rng import RandomState, as_generator, spawn_generators


def optimize_multistart(
    cost: CoverageCost,
    random_starts: int = 3,
    delta_grid: Sequence[float] = DEFAULT_DELTA_GRID,
    seed: RandomState = None,
    options: Optional[PerturbedOptions] = None,
) -> MultiStartResult:
    """Portfolio, then spawned streams, then one walk per start."""
    rng = as_generator(seed)
    starts = default_start_portfolio(
        cost, random_starts=random_starts, delta_grid=delta_grid, seed=rng
    )
    streams = spawn_generators(rng, len(starts))
    runs = [
        optimize_perturbed(cost, initial=matrix, seed=stream, options=options)
        for (_, matrix), stream in zip(starts, streams)
    ]
    best = min(runs, key=lambda run: run.best_u_eps)
    return MultiStartResult(
        best=best, runs=runs, start_labels=[label for label, _ in starts]
    )
