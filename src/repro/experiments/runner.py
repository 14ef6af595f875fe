"""Shared drivers for multi-run experiments.

Everything the per-table/per-figure code has in common: running an
algorithm across many independent seeds, optimizing one weight setting
with the multi-start portfolio, and simulating a matrix repeatedly to get
percentile bands.

All three drivers fan out over independent tasks and accept an
``executor`` argument (see :mod:`repro.exec`): ``None`` uses the ambient
default installed by :func:`repro.exec.using_executor` (how the CLI's
``--jobs`` flag reaches here), a backend name (``"serial"``,
``"thread"``, ``"process"``) constructs one that is closed before the
driver returns, and an :class:`~repro.exec.Executor` instance is used
as-is.  Each task's randomness comes from its own pre-spawned stream,
so results are bit-identical across backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.api import OPTIMIZER_REGISTRY, optimize
from repro.core.cost import CostWeights, CoverageCost
from repro.core.perturbed import PerturbedOptions
from repro.core.result import OptimizationResult
from repro.exec import executor_scope
from repro.simulation.engine import SimulationOptions, simulate_schedule
from repro.topology.model import Topology
from repro.utils.rng import spawn_generators


def _run_many_algorithms() -> List[str]:
    """Registry methods ``run_many`` accepts: every seeded single-start
    variant (multi-start has its own driver and draws its own portfolio)."""
    return sorted(
        name for name, spec in OPTIMIZER_REGISTRY.items()
        if spec.accepts_seed and name != "multistart"
    )


def _run_one(task) -> OptimizationResult:
    """One ``run_many`` task; module-level so it pickles for processes."""
    algorithm, cost, iterations, trisection_rounds, rng = task
    spec = OPTIMIZER_REGISTRY[algorithm]
    fields = set(spec.options_class.__dataclass_fields__)
    options = {
        "max_iterations": iterations,
        "record_history": False,
    }
    if "trisection_rounds" in fields:
        options["trisection_rounds"] = trisection_rounds
    if "stall_limit" in fields:
        options["stall_limit"] = max(iterations, 1)
    return optimize(cost, method=algorithm, seed=rng, options=options)


def run_many(
    cost: CoverageCost,
    algorithm: str,
    runs: int,
    iterations: int,
    seed: int = 0,
    trisection_rounds: int = 20,
    executor=None,
    transport=None,
) -> List[OptimizationResult]:
    """Run ``algorithm`` ``runs`` times with independent seeds.

    ``algorithm`` may be any seeded single-start registry method
    (``"adaptive"``, ``"mirror"``, ``"perturbed"``, ...); options that
    the method does not declare — e.g. ``trisection_rounds`` for
    ``"mirror"`` — are simply not passed.  Each run draws an
    independent random initial matrix (the paper's V2 recipe) from an
    independent RNG stream, so the result list does not depend on which
    backend executes the runs.  History recording is off: multi-run
    experiments only need the achieved costs.  ``transport`` selects
    the process backend's payload transport when ``executor`` names a
    backend (see :mod:`repro.exec.shm`).
    """
    valid = _run_many_algorithms()
    if algorithm not in valid:
        raise ValueError(
            f"algorithm must be one of {valid}, got {algorithm!r}"
        )
    tasks = [
        (algorithm, cost, iterations, trisection_rounds, rng)
        for rng in spawn_generators(seed, runs)
    ]
    with executor_scope(executor, transport=transport) as runner:
        return runner.map(_run_one, tasks)


def optimize_weight_setting(
    topology: Topology,
    alpha: float,
    beta: float,
    iterations: int,
    random_starts: int = 2,
    seed: int = 0,
    epsilon: float = 1e-4,
    initial: Optional[np.ndarray] = None,
    executor=None,
) -> OptimizationResult:
    """Best matrix for one ``(alpha, beta)`` weighting.

    Uses the multi-start perturbed optimizer (see
    :mod:`repro.core.multistart`); ``initial``, when given, is added to
    the portfolio as a warm start (used by sweep continuation).
    ``executor`` runs the multi-start's starts (``None``: the
    process-wide default; a serial executor runs them in lockstep).
    """
    cost = CoverageCost(
        topology, CostWeights(alpha=alpha, beta=beta, epsilon=epsilon)
    )
    options = PerturbedOptions(
        max_iterations=iterations,
        trisection_rounds=20,
        stall_limit=max(iterations, 1),
        record_history=False,
    )
    multi = optimize(
        cost,
        method="multistart",
        seed=seed,
        options=options,
        random_starts=random_starts,
        execution=executor,
    )
    best = multi.best
    if initial is not None:
        warm = optimize(
            cost, method="perturbed", initial=initial, seed=seed + 1,
            options=options,
        )
        if warm.best_u_eps < best.best_u_eps:
            best = warm
    return best


@dataclass
class SimulationBand:
    """Mean and percentile band of a repeatedly simulated metric."""

    mean: float
    p25: float
    p75: float


def _simulate_one(task):
    """One ``simulate_repeatedly`` task (module-level for pickling)."""
    topology, matrix, transitions, warmup, rng = task
    return simulate_schedule(
        topology,
        matrix,
        transitions=transitions,
        seed=rng,
        options=SimulationOptions(warmup=warmup),
    )


def simulate_repeatedly(
    topology: Topology,
    matrix: np.ndarray,
    transitions: int,
    repetitions: int,
    seed: int = 0,
    warmup: Optional[int] = None,
    executor=None,
    transport=None,
):
    """Simulate ``matrix`` several times; return the per-run results.

    ``transport`` selects the process backend's payload transport when
    ``executor`` names a backend (see :mod:`repro.exec.shm`).
    """
    if repetitions < 1:
        raise ValueError(
            f"repetitions must be >= 1, got {repetitions}"
        )
    if warmup is None:
        warmup = max(transitions // 10, 100)
    # Warm the chord-table cache before the tasks are built: every task
    # (and every pickled copy shipped to process workers) then reuses the
    # one precomputed geometry instead of redoing the O(M^3) intersections.
    topology.chord_table()
    tasks = [
        (topology, matrix, transitions, warmup, rng)
        for rng in spawn_generators(seed, repetitions)
    ]
    with executor_scope(executor, transport=transport) as runner:
        return runner.map(_simulate_one, tasks)


def metric_band(values: Sequence[float]) -> SimulationBand:
    """Mean and 25th/75th percentiles of one measured metric."""
    values = np.asarray(values, dtype=float)
    return SimulationBand(
        mean=float(values.mean()),
        p25=float(np.percentile(values, 25)),
        p75=float(np.percentile(values, 75)),
    )
