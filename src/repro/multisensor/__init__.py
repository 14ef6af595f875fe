"""Multi-sensor extension: teams of independently scheduled sensors.

The paper optimizes a single sensor's Markov schedule.  A direct — and
practically important — generalization lets ``K`` sensors patrol the same
topology, each following its own (or a shared) transition matrix,
independently tossing their own coins.  Statelessness is preserved: no
coordination, no communication, each sensor remains a constant-time coin
toss.

What changes is the *accounting*: a PoI is covered when **any** sensor is
in range, so per-PoI coverage is the union of the team's coverage
intervals and exposure segments are the gaps where *no* sensor is in
range.

* :mod:`repro.multisensor.engine` — exact team simulation (input
  validation and the result type), plus executor fan-out for
  independent replications.
* :mod:`repro.multisensor.vectorized` — the engine body: pre-sampled
  paths replayed through the shared interval kernels of
  :mod:`repro.simulation.intervals`.
* :mod:`repro.multisensor.analytic` — independence approximations for
  team coverage and exposure, with their validity ranges documented and
  tested against the simulator, and internal-consistency cross-checks
  for simulated team results.
"""

from repro.multisensor.engine import (
    TeamSimulationResult,
    simulate_team,
    simulate_team_repeatedly,
)
from repro.multisensor.analytic import (
    check_team_result,
    sensors_needed_for_coverage,
    team_coverage_approximation,
    team_exposure_approximation,
)

__all__ = [
    "simulate_team",
    "simulate_team_repeatedly",
    "TeamSimulationResult",
    "check_team_result",
    "team_coverage_approximation",
    "team_exposure_approximation",
    "sensors_needed_for_coverage",
]
