"""Ablation studies of the design choices DESIGN.md calls out.

* **A1 — step-size policy**: fixed ``dt`` values (the paper's V1 knob)
  against the adaptive trisection line search (V3), measuring the cost
  reached for the same iteration budget.
* **A2 — noise and cooling**: the perturbed algorithm's ``sigma`` and
  ``k`` knobs (V4), measuring escape from local optima.
* **A3 — barrier width**: the ``epsilon`` of Eq. (9), measuring both the
  achievable cost (a wide barrier excludes good near-boundary solutions)
  and solver robustness.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.cost import CostWeights, CoverageCost
from repro.core.perturbed import (
    AdaptiveOptions,
    BasicDescentOptions,
    PerturbedOptions,
    optimize_adaptive,
    optimize_basic,
    optimize_perturbed,
)
from repro.experiments.config import current_scale
from repro.experiments.reporting import TableResult
from repro.topology.library import paper_topology
from repro.topology.model import Topology
from repro.utils.rng import spawn_generators


def ablation_step_size(
    topology: Optional[Topology] = None,
    step_sizes: Sequence[float] = (1e-6, 1e-5, 1e-4, 1e-3),
    iterations: Optional[int] = None,
    seed: int = 0,
) -> TableResult:
    """A1: fixed-step basic descent vs the adaptive line search."""
    scale = current_scale()
    topology = topology or paper_topology(1)
    iterations = iterations or scale.search_iterations
    cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1.0))

    rows = []
    for step in step_sizes:
        result = optimize_basic(
            cost,
            options=BasicDescentOptions(
                step_size=step,
                max_iterations=iterations,
                record_history=False,
            ),
        )
        rows.append(
            [f"basic dt={step:g}", result.u_eps, result.iterations,
             result.stop_reason]
        )
    # Same uniform start as the basic runs, so the comparison isolates
    # the step policy rather than the initialization.
    from repro.core.initializers import uniform_matrix

    adaptive = optimize_adaptive(
        cost,
        initial=uniform_matrix(topology.size),
        seed=seed,
        options=AdaptiveOptions(
            max_iterations=iterations, trisection_rounds=20,
            record_history=False,
        ),
    )
    rows.append(
        ["adaptive (V3)", adaptive.u_eps, adaptive.iterations,
         adaptive.stop_reason]
    )
    return TableResult(
        experiment_id="Ablation A1",
        title=f"step-size policy, same iteration budget ({topology.name})",
        columns=["policy", "U_eps", "iterations", "stop"],
        rows=rows,
        notes=(
            "Shape check: the adaptive line search reaches a lower cost "
            "than any fixed step within the budget."
        ),
    )


def ablation_noise(
    topology: Optional[Topology] = None,
    sigmas: Sequence[float] = (0.0, 0.1, 0.5, 2.0),
    cooling_ks: Sequence[float] = (100.0, 10_000.0),
    runs: int = 6,
    iterations: Optional[int] = None,
    seed: int = 0,
) -> TableResult:
    """A2: gradient-noise magnitude and cooling constant (V4 knobs).

    ``sigma = 0`` disables the gradient noise, isolating the annealed
    random-step mechanism; the paper's setting is ``k = 10000``.
    """
    scale = current_scale()
    topology = topology or paper_topology(1)
    iterations = iterations or scale.search_iterations
    cost = CoverageCost(topology, CostWeights(alpha=0.0, beta=1.0))

    rows = []
    raw = {}
    for sigma in sigmas:
        for cooling_k in cooling_ks:
            finals = []
            for rng in spawn_generators(seed, runs):
                result = optimize_perturbed(
                    cost,
                    seed=rng,
                    options=PerturbedOptions(
                        max_iterations=iterations,
                        trisection_rounds=20,
                        sigma=sigma,
                        cooling_k=cooling_k,
                        stall_limit=iterations + 1,
                        record_history=False,
                    ),
                )
                finals.append(result.best_u_eps)
            label = f"sigma={sigma:g}, k={cooling_k:g}"
            raw[label] = finals
            rows.append(
                [label, min(finals), max(finals), float(np.mean(finals))]
            )
    return TableResult(
        experiment_id="Ablation A2",
        title=(
            f"perturbation noise and cooling over {runs} runs "
            f"(alpha=0, beta=1, {topology.name})"
        ),
        columns=["setting", "min", "max", "average"],
        rows=rows,
        raw=raw,
        notes=(
            "Shape check: moderate noise lowers the worst-case cost "
            "relative to sigma=0."
        ),
    )


def ablation_linesearch(
    topology: Optional[Topology] = None,
    decades: Sequence[int] = (0, 4, 12),
    runs: int = 4,
    iterations: Optional[int] = None,
    seed: int = 0,
) -> TableResult:
    """A4: geometric pre-sweep depth of the line search.

    ``decades = 0`` is the paper's pure conservative trisection; deeper
    sweeps probe ``bound * 10^-k`` first, resolving the tiny improving
    steps that noisy (perturbed) descent directions frequently have near
    the log-barrier (DESIGN.md section 3).  Measured with the perturbed
    algorithm on the coverage-dominant setting over several runs.
    """
    scale = current_scale()
    topology = topology or paper_topology(1)
    iterations = iterations or scale.search_iterations
    cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1e-4))

    rows = []
    raw = {}
    for depth in decades:
        finals = []
        for rng in spawn_generators(seed, runs):
            result = optimize_perturbed(
                cost,
                seed=rng,
                options=PerturbedOptions(
                    max_iterations=iterations,
                    trisection_rounds=20,
                    geometric_decades=depth,
                    stall_limit=iterations + 1,
                    record_history=False,
                ),
            )
            finals.append(result.best_u_eps)
        label = f"decades={depth}"
        raw[label] = finals
        rows.append(
            [label, min(finals), max(finals), float(np.mean(finals))]
        )
    return TableResult(
        experiment_id="Ablation A4",
        title=(
            f"line-search pre-sweep depth over {runs} perturbed runs "
            f"(alpha=1, beta=1e-4, {topology.name})"
        ),
        columns=["setting", "min", "max", "average"],
        rows=rows,
        raw=raw,
        notes=(
            "Finding: with bracket refinement in place the pre-sweep "
            "is cheap insurance — averages agree within noise on the "
            "paper topologies; decades=0 is the paper's pure trisection."
        ),
    )


def ablation_epsilon(
    topology: Optional[Topology] = None,
    epsilons: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5),
    iterations: Optional[int] = None,
    seed: int = 0,
) -> TableResult:
    """A3: barrier band width ``epsilon`` of Eq. (9).

    A wide barrier keeps iterates away from the polytope boundary where
    the slow-moving, coverage-accurate schedules live; a very narrow one
    risks numerically non-ergodic iterates.  Measured on the
    coverage-dominant setting where the boundary matters most.
    """
    scale = current_scale()
    topology = topology or paper_topology(1)
    iterations = iterations or scale.search_iterations

    rows = []
    for epsilon in epsilons:
        cost = CoverageCost(
            topology,
            CostWeights(alpha=1.0, beta=1e-6, epsilon=epsilon),
        )
        result = optimize_perturbed(
            cost,
            seed=seed,
            options=PerturbedOptions(
                max_iterations=iterations,
                trisection_rounds=20,
                stall_limit=iterations + 1,
                record_history=False,
            ),
        )
        matrix = result.best_matrix
        rows.append(
            [f"eps={epsilon:g}", result.best_u_eps,
             cost.delta_c(matrix), float(matrix.min())]
        )
    return TableResult(
        experiment_id="Ablation A3",
        title=f"barrier width (alpha=1, beta=1e-6, {topology.name})",
        columns=["epsilon", "U_eps", "dC", "min p_ij"],
        rows=rows,
        notes=(
            "Shape check: smaller epsilon admits smaller min p_ij and "
            "lower achievable dC."
        ),
    )


def ablation_optimizer(
    topology: Optional[Topology] = None,
    betas: Sequence[float] = (1.0, 1e-4),
    iterations: Optional[int] = None,
    seed: int = 0,
) -> TableResult:
    """A5: optimizer families at equal iteration budgets.

    Compares the paper's three variants against the mirror-descent
    extension (softmax reparametrization, no barrier interaction) from
    the same uniform start.  Perturbed additionally uses its random
    start, matching how each method is meant to be run.
    """
    from repro.core.initializers import uniform_matrix
    from repro.core.mirror import MirrorOptions, optimize_mirror

    scale = current_scale()
    topology = topology or paper_topology(1)
    iterations = iterations or scale.search_iterations

    rows = []
    for beta in betas:
        cost = CoverageCost(
            topology, CostWeights(alpha=1.0, beta=beta)
        )
        start = uniform_matrix(topology.size)
        basic = optimize_basic(
            cost, initial=start,
            options=BasicDescentOptions(
                step_size=1e-5, max_iterations=iterations,
                record_history=False,
            ),
        )
        adaptive = optimize_adaptive(
            cost, initial=start, seed=seed,
            options=AdaptiveOptions(
                max_iterations=iterations, trisection_rounds=20,
                record_history=False,
            ),
        )
        perturbed = optimize_perturbed(
            cost, seed=seed,
            options=PerturbedOptions(
                max_iterations=iterations, trisection_rounds=20,
                stall_limit=iterations + 1, record_history=False,
            ),
        )
        mirror = optimize_mirror(
            cost, initial=start,
            options=MirrorOptions(
                max_iterations=iterations, record_history=False,
            ),
        )
        for label, result in (
            ("basic (V1)", basic),
            ("adaptive (V3)", adaptive),
            ("perturbed (V4)", perturbed),
            ("mirror (ext.)", mirror),
        ):
            rows.append(
                [f"beta={beta:g}", label, result.best_u_eps,
                 result.stop_reason]
            )
    return TableResult(
        experiment_id="Ablation A5",
        title=(
            f"optimizer families at equal budgets ({topology.name})"
        ),
        columns=["setting", "optimizer", "U_eps", "stop"],
        rows=rows,
        notes=(
            "Finding: the softmax reparametrization is competitive with "
            "(and on coverage-dominant weightings often better than) "
            "the projection+barrier formulation, at the cost of leaving "
            "the paper's framework."
        ),
    )
