"""Continuous-time simulation of the Markov-scheduled mobile sensor.

The simulator drives a sensor over a physical
:class:`~repro.topology.model.Topology` using a transition matrix computed
by the optimizer, and measures what the analytic formulas predict: coverage
shares, the coverage deviation ``Delta C``, and per-PoI exposure times in
both the paper's transition-count convention and real physical time
(Section VI-D compares the two).
"""

from repro.simulation.engine import SimulationOptions, simulate_schedule
from repro.simulation.api import (
    SIMULATOR_REGISTRY,
    SimulatorSpec,
    TeamOptions,
    simulate,
)
from repro.simulation.metrics import SimulationResult
from repro.simulation.intervals import (
    count_caught,
    gap_lengths,
    grouped_coverage,
    merge_intervals,
)
from repro.simulation.capture import (
    CaptureResult,
    capture_probability_approximation,
    simulate_event_capture,
)

__all__ = [
    "SimulationOptions",
    "SimulationResult",
    "simulate",
    "simulate_schedule",
    "SimulatorSpec",
    "SIMULATOR_REGISTRY",
    "TeamOptions",
    "merge_intervals",
    "gap_lengths",
    "count_caught",
    "grouped_coverage",
    "CaptureResult",
    "simulate_event_capture",
    "capture_probability_approximation",
]
