#!/usr/bin/env python
"""Scale out with a sensor team instead of a faster sensor.

The paper schedules one mobile sensor.  When one sensor cannot meet an
exposure requirement, operators add sensors.  This example shows the
team extension (`repro.multisensor`) answering the two questions that
come up in practice:

1. How do coverage and exposure improve as the team grows, and how well
   do the independence approximations predict it without simulating?
2. How many sensors does a target demand (the `1 - (1-c)^K` sizing
   rule)?

All sensors run the same optimized single-sensor schedule and stay
completely uncoordinated — each remains the paper's constant-time coin
toss, so the scaling costs no scheduling complexity at all.

Team runs use the vectorized team engine (see docs/simulation.md) and
fan independent replications out over the
`repro.exec` execution layer, so each table row is a mean over several
simulated missions rather than a single noisy run.

Run:  python examples/sensor_team.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CostWeights,
    CoverageCost,
    PerturbedOptions,
    optimize_perturbed,
    paper_topology,
)
from repro.multisensor import (
    sensors_needed_for_coverage,
    simulate_team,
    simulate_team_repeatedly,
    team_coverage_approximation,
    team_exposure_approximation,
)


def main() -> None:
    np.set_printoptions(precision=3, suppress=True)
    topology = paper_topology(2)

    # One schedule, optimized for the balanced objective.
    cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1.0))
    matrix = optimize_perturbed(
        cost, seed=0,
        options=PerturbedOptions(max_iterations=250,
                                 trisection_rounds=18),
    ).best_matrix

    horizon = 150_000.0
    solo = simulate_team(topology, [matrix], horizon=horizon, seed=1)
    print(f"Single sensor (simulated {horizon / 3600:.0f} h):")
    print(f"  coverage shares: {solo.coverage_shares}")
    print(f"  mean exposure gaps (s): {solo.exposure_mean}\n")

    replications = 4
    header = (f"{'K':>3}  {'total coverage':>14}  {'predicted':>10}  "
              f"{'mean gap (s)':>12}  {'predicted':>10}")
    print(f"(each row: mean of {replications} replications, fanned out "
          "over worker threads)")
    print(header)
    print("-" * len(header))
    for team_size in (1, 2, 3, 5):
        # Independent missions fan out over the execution layer; each
        # replication draws from its own pre-spawned stream, so results
        # are identical on any backend ("serial"/"thread"/"process").
        runs = simulate_team_repeatedly(
            topology, [matrix] * team_size, horizon=horizon,
            repetitions=replications, seed=2, executor="thread",
        )
        coverage = float(np.mean(
            [run.coverage_shares.mean() for run in runs]
        ))
        mean_gap = float(np.mean(
            [np.nanmean(run.exposure_mean) for run in runs]
        ))
        predicted_cov = team_coverage_approximation(
            np.tile(solo.coverage_shares, (team_size, 1))
        )
        predicted_gap = team_exposure_approximation(
            np.tile(solo.exposure_mean, (team_size, 1))
        )
        print(f"{team_size:>3}  {coverage:>14.3f}  "
              f"{predicted_cov.mean():>10.3f}  "
              f"{mean_gap:>12.1f}  "
              f"{np.nanmean(predicted_gap):>10.1f}")

    single_mean = float(solo.coverage_shares.mean())
    for target in (0.5, 0.9, 0.99):
        needed = sensors_needed_for_coverage(single_mean, target)
        print(f"\n{target:.0%} mean coverage needs K = {needed} sensors "
              f"(single sensor covers {single_mean:.1%})", end="")
    print(
        "\n\nReading the table: coverage composes as 1-(1-c)^K and gaps"
        "\nshrink roughly harmonically — both predicted without"
        "\nsimulation by the independence approximations."
    )


if __name__ == "__main__":
    main()
