"""One-command reproduction check.

Runs scaled-down versions of the key experiments and evaluates the
acceptance criteria of DESIGN.md section 6, returning a PASS/FAIL table.
This is the "does my installation reproduce the paper's shapes?" command
for downstream users (`python -m repro experiment validate`); the full
benchmark suite measures the same things at proper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.cost import CostWeights, CoverageCost
from repro.experiments.reporting import TableResult
from repro.experiments.runner import run_many, simulate_repeatedly
from repro.experiments.tables import run_weight_sweep
from repro.topology.library import paper_topology


@dataclass
class Criterion:
    """One acceptance criterion and its outcome."""

    name: str
    passed: bool
    detail: str


def _check_tradeoff(iterations: int, seed: int) -> List[Criterion]:
    """Table I/II shape: beta down -> coverage to Phi, exposure up."""
    topology = paper_topology(3)
    sweep = run_weight_sweep(
        topology,
        ratios=((1.0, 1.0), (1.0, 1e-4), (1.0, 0.0)),
        iterations=iterations,
        random_starts=1,
        seed=seed,
    )
    phi = topology.target_shares
    errors = [
        float(np.abs(entry.coverage_shares - phi).max())
        for entry in sweep
    ]
    exposures = [entry.e_bar for entry in sweep]
    return [
        Criterion(
            name="coverage approaches target as beta decreases",
            passed=errors[-1] < errors[0] and errors[-1] < 0.05,
            detail=f"max |C-Phi|: {errors[0]:.3g} -> {errors[-1]:.3g}",
        ),
        Criterion(
            name="exposure grows as beta decreases",
            passed=exposures[-1] > 3.0 * exposures[0],
            detail=f"E-bar: {exposures[0]:.3g} -> {exposures[-1]:.3g}",
        ),
    ]


def _check_local_optima(iterations: int, runs: int,
                        seed: int) -> List[Criterion]:
    """Fig. 2 / Table III shape: perturbed beats adaptive."""
    topology = paper_topology(1)
    cost = CoverageCost(topology, CostWeights(alpha=0.0, beta=1.0))
    adaptive = [
        r.best_u_eps
        for r in run_many(cost, "adaptive", runs, iterations, seed=seed)
    ]
    perturbed = [
        r.best_u_eps
        for r in run_many(
            cost, "perturbed", runs, iterations, seed=seed + 99
        )
    ]
    spread_a = max(adaptive) - min(adaptive)
    spread_p = max(perturbed) - min(perturbed)
    return [
        Criterion(
            name="perturbed average beats adaptive average",
            passed=float(np.mean(perturbed)) <= float(np.mean(adaptive)),
            detail=(
                f"avg perturbed {np.mean(perturbed):.4g} vs adaptive "
                f"{np.mean(adaptive):.4g}"
            ),
        ),
        Criterion(
            name="perturbed spread tighter than adaptive spread",
            passed=spread_p <= spread_a,
            detail=f"spread {spread_p:.3g} vs {spread_a:.3g}",
        ),
    ]


def _check_simulation_match(iterations: int, seed: int) -> List[Criterion]:
    """Figs. 6-8 shape: simulated metrics track computed ones."""
    from repro.core.perturbed import PerturbedOptions, optimize_perturbed

    topology = paper_topology(2)
    cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=0.0))
    result = optimize_perturbed(
        cost, seed=seed,
        options=PerturbedOptions(
            max_iterations=iterations, trisection_rounds=15,
            stall_limit=iterations + 1, record_history=False,
        ),
    )
    matrix = result.best_matrix
    sims = simulate_repeatedly(
        topology, matrix, transitions=20_000, repetitions=3, seed=seed
    )
    simulated_dc = float(np.mean([s.delta_c for s in sims]))
    simulated_e = float(np.mean([s.e_bar_transitions for s in sims]))
    computed_dc = cost.delta_c(matrix)
    computed_e = cost.e_bar(matrix)
    close_dc = abs(simulated_dc - computed_dc) \
        <= 0.15 * max(computed_dc, 0.1)
    close_e = abs(simulated_e - computed_e) \
        <= 0.15 * max(computed_e, 0.1)
    return [
        Criterion(
            name="simulated dC matches computed dC",
            passed=close_dc,
            detail=f"{simulated_dc:.4g} vs {computed_dc:.4g}",
        ),
        Criterion(
            name="simulated E-bar matches computed E-bar",
            passed=close_e,
            detail=f"{simulated_e:.4g} vs {computed_e:.4g}",
        ),
    ]


def _check_gradient(seed: int) -> List[Criterion]:
    """Analytic Eq. (10) gradient vs finite differences."""
    from repro.core.gradient import directional_derivative
    from repro.core.state import ChainState

    rng = np.random.default_rng(seed)
    topology = paper_topology(1)
    cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1.0))
    matrix = 0.05 + 0.8 * rng.dirichlet(np.ones(4), size=4)
    matrix /= matrix.sum(axis=1, keepdims=True)
    state = ChainState.from_matrix(matrix)
    worst = 0.0
    h = 1e-7
    for _ in range(3):
        direction = rng.normal(size=(4, 4))
        direction -= direction.mean(axis=1, keepdims=True)
        numeric = (
            cost.value(matrix + h * direction)
            - cost.value(matrix - h * direction)
        ) / (2 * h)
        analytic = directional_derivative(state, cost.terms, direction)
        worst = max(
            worst, abs(numeric - analytic) / max(1.0, abs(numeric))
        )
    return [
        Criterion(
            name="Eq. (10) gradient matches finite differences",
            passed=worst < 1e-5,
            detail=f"worst relative error {worst:.2e}",
        )
    ]


def validate_reproduction(
    iterations: int = 120,
    runs: int = 6,
    seed: int = 0,
    checks: Optional[List[Callable]] = None,
) -> TableResult:
    """Run the acceptance-criteria suite and return a PASS/FAIL table.

    The default budget finishes in about a minute; the criteria are the
    same shapes the full benchmarks measure (DESIGN.md section 6).
    """
    criteria: List[Criterion] = []
    criteria.extend(_check_gradient(seed))
    criteria.extend(_check_tradeoff(iterations, seed))
    criteria.extend(_check_local_optima(iterations, runs, seed))
    criteria.extend(_check_simulation_match(iterations, seed))
    if checks:
        for check in checks:
            criteria.extend(check())
    rows = [
        [c.name, "PASS" if c.passed else "FAIL", c.detail]
        for c in criteria
    ]
    passed = sum(c.passed for c in criteria)
    return TableResult(
        experiment_id="Validation",
        title="reproduction acceptance criteria (DESIGN.md section 6)",
        columns=["criterion", "status", "detail"],
        rows=rows,
        raw={"criteria": criteria},
        notes=f"{passed}/{len(criteria)} criteria passed.",
    )
