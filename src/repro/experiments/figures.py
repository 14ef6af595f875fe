"""Reproduction of the paper's Figures 2-8.

Each function returns a :class:`~repro.experiments.reporting.FigureResult`
holding the exact series the corresponding figure plots.

* Fig. 2(a,b) — CDFs of the achieved cost ``U_eps`` over many runs,
  adaptive vs perturbed, for ``alpha=0, beta=1`` and ``alpha=1, beta=1``
  (Topology 1).
* Fig. 3 — basic-algorithm cost traces for several ``(alpha, beta)``
  (Topology 3).
* Fig. 4 — basic-algorithm cost trace, exposure-only (Topology 1).
* Fig. 5(a,b) — basic trace; perturbed traces from different random
  initializations (``alpha=1, beta=0``, Topology 2).
* Fig. 6/7 — simulated vs computed ``Delta C`` and ``E-bar`` along the
  optimization trajectory (Topology 2 / Topology 4, ``alpha=1, beta=0``).
* Fig. 8 — same plus the overall cost ``U`` (``alpha=1, beta=1e-4``,
  Topology 1).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.cost import CostWeights, CoverageCost
from repro.core.perturbed import (
    BasicDescentOptions,
    PerturbedOptions,
    optimize_basic,
    optimize_perturbed,
)
from repro.experiments.config import current_scale
from repro.experiments.reporting import FigureResult, Series, empirical_cdf
from repro.experiments.runner import (
    metric_band,
    run_many,
    simulate_repeatedly,
)
from repro.topology.library import paper_topology
from repro.topology.model import Topology
from repro.utils.rng import spawn_generators


def _cdf_figure(
    experiment_id: str,
    alpha: float,
    beta: float,
    topology: Optional[Topology],
    runs: Optional[int],
    iterations: Optional[int],
    seed: int,
    executor=None,
) -> FigureResult:
    scale = current_scale()
    topology = topology or paper_topology(1)
    runs = runs or scale.cdf_runs
    iterations = iterations or scale.search_iterations
    cost = CoverageCost(topology, CostWeights(alpha=alpha, beta=beta))

    adaptive = [
        r.best_u_eps
        for r in run_many(
            cost, "adaptive", runs, iterations, seed=seed,
            executor=executor,
        )
    ]
    perturbed = [
        r.best_u_eps
        for r in run_many(
            cost, "perturbed", runs, iterations, seed=seed + 999,
            executor=executor,
        )
    ]
    series = []
    for label, values in (("adaptive", adaptive), ("perturbed", perturbed)):
        x, y = empirical_cdf(values)
        series.append(Series(label=label, x=x, y=y))
    best = min(min(adaptive), min(perturbed))
    trapped = float(
        np.mean(np.asarray(adaptive) > best * 1.02 + 1e-9)
    )
    return FigureResult(
        experiment_id=experiment_id,
        title=(
            f"CDF of achieved U_eps, alpha={alpha:g}, beta={beta:g} "
            f"({topology.name}, {runs} runs)"
        ),
        x_label="achieved cost U_eps",
        y_label="CDF",
        series=series,
        raw={
            "adaptive": adaptive,
            "perturbed": perturbed,
            "global_best": best,
            "adaptive_trapped_fraction": trapped,
        },
        notes=(
            f"Fraction of adaptive runs stuck above the global best: "
            f"{trapped:.2f} (paper reports > 0.6)."
        ),
    )


def figure2a(
    topology: Optional[Topology] = None,
    runs: Optional[int] = None,
    iterations: Optional[int] = None,
    seed: int = 0,
    executor=None,
) -> FigureResult:
    """Fig. 2(a): CDFs for the exposure-only cost (alpha=0, beta=1)."""
    return _cdf_figure(
        "Figure 2a", 0.0, 1.0, topology, runs, iterations, seed,
        executor=executor,
    )


def figure2b(
    topology: Optional[Topology] = None,
    runs: Optional[int] = None,
    iterations: Optional[int] = None,
    seed: int = 0,
    executor=None,
) -> FigureResult:
    """Fig. 2(b): CDFs for the combined cost (alpha=1, beta=1)."""
    return _cdf_figure(
        "Figure 2b", 1.0, 1.0, topology, runs, iterations, seed,
        executor=executor,
    )


def _basic_trace(
    cost: CoverageCost,
    iterations: int,
    step: float,
    checkpoint_every: int = 0,
):
    return optimize_basic(
        cost,
        options=BasicDescentOptions(
            step_size=step,
            max_iterations=iterations,
            checkpoint_every=checkpoint_every,
            # Let the trace run its full length for the figures.
            rtol=0.0,
            patience=iterations + 1,
        ),
    )


def figure3(
    topology: Optional[Topology] = None,
    ratios: Tuple[Tuple[float, float], ...] = (
        (1.0, 1.0), (1.0, 1e-2), (1.0, 1e-4),
    ),
    iterations: Optional[int] = None,
    step: Optional[float] = None,
) -> FigureResult:
    """Fig. 3: basic-algorithm cost traces for several weightings."""
    scale = current_scale()
    topology = topology or paper_topology(3)
    iterations = iterations or scale.basic_iterations
    step = step or scale.basic_step
    series = []
    for alpha, beta in ratios:
        cost = CoverageCost(topology, CostWeights(alpha=alpha, beta=beta))
        result = _basic_trace(cost, iterations, step)
        trace = result.cost_trace()
        series.append(
            Series(
                label=f"alpha={alpha:g}, beta={beta:g}",
                x=np.arange(1, trace.size + 1, dtype=float),
                y=trace,
            )
        )
    return FigureResult(
        experiment_id="Figure 3",
        title=f"basic algorithm: U vs iteration ({topology.name})",
        x_label="iteration",
        y_label="cost U_eps",
        series=series,
        notes="Shape check: monotone-ish decay with diminishing returns.",
    )


def figure4(
    topology: Optional[Topology] = None,
    iterations: Optional[int] = None,
    step: Optional[float] = None,
) -> FigureResult:
    """Fig. 4: basic-algorithm trace for the exposure-only cost."""
    scale = current_scale()
    topology = topology or paper_topology(1)
    iterations = iterations or scale.basic_iterations
    step = step or scale.basic_step
    cost = CoverageCost(topology, CostWeights(alpha=0.0, beta=1.0))
    result = _basic_trace(cost, iterations, step)
    trace = result.cost_trace()
    return FigureResult(
        experiment_id="Figure 4",
        title=(
            f"basic algorithm: U vs iteration (alpha=0, beta=1, "
            f"{topology.name})"
        ),
        x_label="iteration",
        y_label="cost U_eps",
        series=[
            Series(
                label="basic",
                x=np.arange(1, trace.size + 1, dtype=float),
                y=trace,
            )
        ],
    )


def figure5a(
    topology: Optional[Topology] = None,
    iterations: Optional[int] = None,
    step: Optional[float] = None,
) -> FigureResult:
    """Fig. 5(a): basic-algorithm trace (alpha=1, beta=0, Topology 2)."""
    scale = current_scale()
    topology = topology or paper_topology(2)
    iterations = iterations or scale.basic_iterations
    step = step or scale.basic_step
    cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=0.0))
    result = _basic_trace(cost, iterations, step)
    trace = result.cost_trace()
    return FigureResult(
        experiment_id="Figure 5a",
        title=(
            f"basic algorithm: U vs iteration (alpha=1, beta=0, "
            f"{topology.name})"
        ),
        x_label="iteration",
        y_label="cost U_eps",
        series=[
            Series(
                label="basic",
                x=np.arange(1, trace.size + 1, dtype=float),
                y=trace,
            )
        ],
    )


def figure5b(
    topology: Optional[Topology] = None,
    seeds: int = 3,
    iterations: Optional[int] = None,
    seed: int = 0,
) -> FigureResult:
    """Fig. 5(b): perturbed traces from different random initial matrices.

    Shape check: runs started from different random seeds converge to the
    same stable cost (the perturbed algorithm is not trapped).
    """
    scale = current_scale()
    topology = topology or paper_topology(2)
    iterations = iterations or scale.trace_iterations
    cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=0.0))
    series = []
    finals = []
    for index, rng in enumerate(spawn_generators(seed, seeds)):
        result = optimize_perturbed(
            cost,
            seed=rng,
            options=PerturbedOptions(
                max_iterations=iterations,
                trisection_rounds=20,
                stall_limit=iterations + 1,
            ),
        )
        # Plot the best-so-far envelope: the perturbed trajectory itself
        # deliberately wanders uphill.
        trace = np.minimum.accumulate(result.cost_trace())
        finals.append(result.best_u_eps)
        series.append(
            Series(
                label=f"seed {index}",
                x=np.arange(1, trace.size + 1, dtype=float),
                y=trace,
            )
        )
    spread = max(finals) - min(finals)
    return FigureResult(
        experiment_id="Figure 5b",
        title=(
            f"perturbed algorithm from {seeds} random starts "
            f"(alpha=1, beta=0, {topology.name})"
        ),
        x_label="iteration",
        y_label="best cost so far",
        series=series,
        raw={"finals": finals, "spread": spread},
        notes=f"Final-cost spread across seeds: {spread:.3g}.",
    )


def _trajectory_figure(
    experiment_id: str,
    topology: Topology,
    alpha: float,
    beta: float,
    iterations: Optional[int],
    step: Optional[float],
    transitions: Optional[int],
    repetitions: Optional[int],
    checkpoints: Optional[int],
    seed: int,
    include_cost: bool,
) -> FigureResult:
    """Shared engine of Figs. 6-8: simulate matrices along a trajectory."""
    scale = current_scale()
    iterations = iterations or scale.basic_iterations
    step = step or scale.basic_step
    transitions = transitions or scale.sim_transitions
    repetitions = repetitions or scale.sim_repetitions
    checkpoints = checkpoints or scale.sim_checkpoints

    cost = CoverageCost(topology, CostWeights(alpha=alpha, beta=beta))
    checkpoint_every = max(iterations // checkpoints, 1)
    result = _basic_trace(
        cost, iterations, step, checkpoint_every=checkpoint_every
    )

    xs: List[float] = []
    computed_dc: List[float] = []
    computed_e: List[float] = []
    computed_u: List[float] = []
    sim_dc, sim_dc_lo, sim_dc_hi = [], [], []
    sim_e, sim_e_lo, sim_e_hi = [], [], []
    sim_u: List[float] = []
    for iteration, matrix in result.checkpoints:
        breakdown = cost.evaluate(matrix)
        xs.append(float(iteration))
        computed_dc.append(breakdown.delta_c)
        computed_e.append(breakdown.e_bar)
        computed_u.append(breakdown.u)
        simulations = simulate_repeatedly(
            topology, matrix, transitions, repetitions,
            seed=seed + iteration,
        )
        band_dc = metric_band([s.delta_c for s in simulations])
        band_e = metric_band([s.e_bar_transitions for s in simulations])
        sim_dc.append(band_dc.mean)
        sim_dc_lo.append(band_dc.p25)
        sim_dc_hi.append(band_dc.p75)
        sim_e.append(band_e.mean)
        sim_e_lo.append(band_e.p25)
        sim_e_hi.append(band_e.p75)
        sim_u.append(
            0.5 * alpha * band_dc.mean + 0.5 * beta * band_e.mean**2
        )

    x = np.asarray(xs)
    series = [
        Series("dC computed", x, np.asarray(computed_dc)),
        Series(
            "dC simulated", x, np.asarray(sim_dc),
            y_low=np.asarray(sim_dc_lo), y_high=np.asarray(sim_dc_hi),
        ),
        Series("E computed", x, np.asarray(computed_e)),
        Series(
            "E simulated", x, np.asarray(sim_e),
            y_low=np.asarray(sim_e_lo), y_high=np.asarray(sim_e_hi),
        ),
    ]
    if include_cost:
        series.append(Series("U computed", x, np.asarray(computed_u)))
        series.append(Series("U simulated", x, np.asarray(sim_u)))
    return FigureResult(
        experiment_id=experiment_id,
        title=(
            f"simulated vs computed metrics along the trajectory "
            f"(alpha={alpha:g}, beta={beta:g}, {topology.name})"
        ),
        x_label="iteration",
        y_label="dC / E-bar" + (" / U" if include_cost else ""),
        series=series,
        raw={"result": result},
        notes=(
            "Shape check: simulated series track the computed ones; the "
            "match of U is exact for beta=0 and close for beta>0."
        ),
    )


def figure6(
    topology: Optional[Topology] = None,
    iterations: Optional[int] = None,
    step: Optional[float] = None,
    transitions: Optional[int] = None,
    repetitions: Optional[int] = None,
    checkpoints: Optional[int] = None,
    seed: int = 0,
) -> FigureResult:
    """Fig. 6: simulated vs computed dC and E (alpha=1, beta=0, Top. 2)."""
    return _trajectory_figure(
        "Figure 6", topology or paper_topology(2), 1.0, 0.0,
        iterations, step, transitions, repetitions, checkpoints, seed,
        include_cost=False,
    )


def figure7(
    topology: Optional[Topology] = None,
    iterations: Optional[int] = None,
    step: Optional[float] = None,
    transitions: Optional[int] = None,
    repetitions: Optional[int] = None,
    checkpoints: Optional[int] = None,
    seed: int = 0,
) -> FigureResult:
    """Fig. 7: simulated vs computed dC and E (alpha=1, beta=0, Top. 4)."""
    return _trajectory_figure(
        "Figure 7", topology or paper_topology(4), 1.0, 0.0,
        iterations, step, transitions, repetitions, checkpoints, seed,
        include_cost=False,
    )


def figure8(
    topology: Optional[Topology] = None,
    iterations: Optional[int] = None,
    step: Optional[float] = None,
    transitions: Optional[int] = None,
    repetitions: Optional[int] = None,
    checkpoints: Optional[int] = None,
    seed: int = 0,
) -> FigureResult:
    """Fig. 8: dC, E, and U (alpha=1, beta=1e-4, Topology 1)."""
    return _trajectory_figure(
        "Figure 8", topology or paper_topology(1), 1.0, 1e-4,
        iterations, step, transitions, repetitions, checkpoints, seed,
        include_cost=True,
    )
