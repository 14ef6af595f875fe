"""Section VII extensions: energy cost and schedule entropy.

The paper sketches how to fold two further objectives into the cost; we
implement both (see :class:`repro.core.terms.EnergyTerm` and
:class:`repro.core.terms.EntropyTerm`) and these experiments demonstrate
the promised behavior:

* **E1 — energy**: penalizing ``(D - gamma)^2`` steers the mean travel
  distance per transition ``D`` toward the prescribed ``gamma``.
* **E2 — entropy**: subtracting ``w H`` raises the schedule's entropy
  rate toward the ``ln M`` bound while giving up little coverage cost,
  making the schedule harder for an adversary to predict.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cost import CostWeights, CoverageCost
from repro.core.perturbed import PerturbedOptions, optimize_perturbed
from repro.core.terms import EnergyTerm, EntropyTerm
from repro.core.state import ChainState
from repro.experiments.config import current_scale
from repro.experiments.reporting import TableResult
from repro.topology.library import paper_topology
from repro.topology.model import Topology


def extension_energy(
    topology: Optional[Topology] = None,
    gammas: Sequence[float] = (10.0, 30.0, 60.0),
    energy_weight: float = 0.01,
    iterations: Optional[int] = None,
    seed: int = 0,
) -> TableResult:
    """E1: the mean travel distance tracks the prescribed ``gamma``."""
    scale = current_scale()
    topology = topology or paper_topology(1)
    iterations = iterations or scale.search_iterations

    probe = EnergyTerm(topology.distances, weight=1.0)
    rows = []
    # Reference: no energy term at all.
    base_cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1e-3))
    base = optimize_perturbed(
        base_cost,
        seed=seed,
        options=PerturbedOptions(
            max_iterations=iterations, trisection_rounds=20,
            stall_limit=iterations + 1, record_history=False,
        ),
    )
    base_travel = probe.mean_travel(
        ChainState.from_matrix(base.best_matrix)
    )
    rows.append(["(no energy term)", "-", base_travel, base.best_u_eps])
    for gamma in gammas:
        cost = CoverageCost(
            topology,
            CostWeights(
                alpha=1.0, beta=1e-3,
                energy_weight=energy_weight, energy_target=gamma,
            ),
        )
        result = optimize_perturbed(
            cost,
            seed=seed,
            options=PerturbedOptions(
                max_iterations=iterations, trisection_rounds=20,
                stall_limit=iterations + 1, record_history=False,
            ),
        )
        travel = probe.mean_travel(
            ChainState.from_matrix(result.best_matrix)
        )
        rows.append(
            [f"w={energy_weight:g}", gamma, travel, result.best_u_eps]
        )
    return TableResult(
        experiment_id="Extension E1",
        title=f"energy objective: D tracks gamma ({topology.name})",
        columns=["setting", "gamma", "achieved D (m)", "U_eps"],
        rows=rows,
        notes=(
            "Shape check: achieved mean travel D moves toward the "
            "prescribed gamma as the energy term is enabled."
        ),
    )


def extension_entropy(
    topology: Optional[Topology] = None,
    weights: Sequence[float] = (0.0, 0.5, 2.0, 8.0),
    iterations: Optional[int] = None,
    seed: int = 0,
) -> TableResult:
    """E2: entropy regularization raises the schedule's entropy rate."""
    import numpy as np

    scale = current_scale()
    topology = topology or paper_topology(1)
    iterations = iterations or scale.search_iterations

    probe = EntropyTerm(weight=1.0)
    rows = []
    for weight in weights:
        cost = CoverageCost(
            topology,
            CostWeights(alpha=1.0, beta=1e-3, entropy_weight=weight),
        )
        result = optimize_perturbed(
            cost,
            seed=seed,
            options=PerturbedOptions(
                max_iterations=iterations, trisection_rounds=20,
                stall_limit=iterations + 1, record_history=False,
            ),
        )
        state = ChainState.from_matrix(result.best_matrix)
        entropy = probe.entropy(state)
        metrics = CoverageCost(
            topology, CostWeights(alpha=1.0, beta=1.0)
        )
        rows.append(
            [f"w={weight:g}", entropy, float(np.log(topology.size)),
             metrics.delta_c(state)]
        )
    return TableResult(
        experiment_id="Extension E2",
        title=f"entropy regularization ({topology.name})",
        columns=["setting", "entropy rate H", "ln M bound", "dC"],
        rows=rows,
        notes=(
            "Shape check: H increases with the entropy weight, trading "
            "off against coverage accuracy."
        ),
    )


def extension_team(
    topology: Optional[Topology] = None,
    team_sizes: Sequence[int] = (1, 2, 3, 5),
    horizon: Optional[float] = None,
    iterations: Optional[int] = None,
    seed: int = 0,
) -> TableResult:
    """E3: sensor teams — measured vs. predicted scaling.

    Optimizes one single-sensor schedule, then simulates homogeneous
    teams of each size and compares the measured union coverage and mean
    exposure gap against the independence approximations of
    :mod:`repro.multisensor.analytic`.
    """
    import numpy as np

    from repro.multisensor import (
        simulate_team,
        team_coverage_approximation,
        team_exposure_approximation,
    )

    scale = current_scale()
    topology = topology or paper_topology(2)
    iterations = iterations or scale.search_iterations
    if horizon is None:
        horizon = float(scale.sim_transitions) * 5.0

    cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1.0))
    matrix = optimize_perturbed(
        cost, seed=seed,
        options=PerturbedOptions(
            max_iterations=iterations, trisection_rounds=20,
            stall_limit=iterations + 1, record_history=False,
        ),
    ).best_matrix

    solo = simulate_team(
        topology, [matrix], horizon=horizon, seed=seed + 1
    )
    rows = []
    for size in team_sizes:
        team = simulate_team(
            topology, [matrix] * size, horizon=horizon, seed=seed + 2
        )
        predicted_cov = team_coverage_approximation(
            np.tile(solo.coverage_shares, (size, 1))
        ).mean()
        predicted_gap = np.nanmean(
            team_exposure_approximation(
                np.tile(solo.exposure_mean, (size, 1))
            )
        )
        rows.append(
            [
                size,
                float(team.coverage_shares.mean()),
                float(predicted_cov),
                float(np.nanmean(team.exposure_mean)),
                float(predicted_gap),
            ]
        )
    return TableResult(
        experiment_id="Extension E3",
        title=f"sensor-team scaling ({topology.name})",
        columns=[
            "K", "coverage", "coverage pred.",
            "mean gap (s)", "gap pred.",
        ],
        rows=rows,
        notes=(
            "Shape check: coverage composes as 1-(1-c)^K and the mean "
            "gap shrinks roughly harmonically, both tracked by the "
            "independence approximations."
        ),
    )


def extension_capture(
    topology: Optional[Topology] = None,
    betas: Sequence[float] = (1.0, 1e-2, 1e-4, 1e-6),
    lifetime: float = 60.0,
    rate: float = 0.002,
    horizon: Optional[float] = None,
    iterations: Optional[int] = None,
    seed: int = 0,
) -> TableResult:
    """E4: event capture vs. the exposure weight ``beta``.

    The paper's exposure metric exists to bound how long incidents go
    undetected (Section I).  This experiment quantifies that: Poisson
    incidents with a finite detectability ``lifetime`` are planted at the
    PoIs, and the capture fraction of the optimized schedule is measured
    as ``beta`` decreases — schedules that tolerate long exposures
    measurably miss more short-lived events.
    """
    import numpy as np

    from repro.simulation.capture import (
        capture_probability_approximation,
        simulate_event_capture,
    )

    scale = current_scale()
    topology = topology or paper_topology(1)
    iterations = iterations or scale.search_iterations
    if horizon is None:
        horizon = float(scale.sim_transitions) * 10.0

    rows = []
    previous = None
    for beta in betas:
        cost = CoverageCost(
            topology, CostWeights(alpha=1.0, beta=beta)
        )
        result = optimize_perturbed(
            cost, initial=previous, seed=seed,
            options=PerturbedOptions(
                max_iterations=iterations, trisection_rounds=20,
                stall_limit=iterations + 1, record_history=False,
            ),
        )
        previous = result.best_matrix
        capture = simulate_event_capture(
            topology, result.best_matrix, horizon=horizon,
            rates=rate, lifetime=lifetime, seed=seed + 5,
        )
        approx = capture_probability_approximation(
            capture.coverage_shares, capture.mean_gaps, lifetime
        )
        rows.append(
            [
                f"beta={beta:g}",
                float(capture.overall_capture),
                float(np.nanmean(approx)),
                cost.e_bar(result.best_matrix),
            ]
        )
    return TableResult(
        experiment_id="Extension E4",
        title=(
            f"event capture vs beta (lifetime {lifetime:g}s, "
            f"{topology.name})"
        ),
        columns=["setting", "capture", "capture pred.", "E-bar"],
        rows=rows,
        notes=(
            "Shape check: capture of short-lived events falls as beta "
            "decreases (exposure grows); the stationary approximation "
            "tracks the measurement."
        ),
    )
