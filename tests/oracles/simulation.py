"""Reference simulators: one Python iteration per transition.

These are the per-step implementations the vectorized engines in
:mod:`repro.simulation.vectorized` and :mod:`repro.multisensor.vectorized`
are checked against.  Each takes the same arguments as its public
counterpart, consumes the RNG stream the same way and returns the same
result type, so a public result and an oracle result compare field by
field with ``np.array_equal``:

* :func:`simulate_schedule` — single sensor, fixed transition count
  (public: :func:`repro.simulation.engine.simulate_schedule`);
* :func:`simulate_team` — ``K`` sensors to a shared horizon, coverage is
  the union of their intervals
  (public: :func:`repro.multisensor.engine.simulate_team`);
* :func:`simulate_event_capture` — Poisson incidents against one
  sensor's coverage timeline
  (public: :func:`repro.simulation.capture.simulate_event_capture`).

Inputs are assumed valid; the public functions own validation.  To
change the physics, change these first, then the engines, and let
``tests/simulation/test_engine_equivalence.py`` decide.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.multisensor.engine import TeamSimulationResult
from repro.simulation.capture import CaptureResult
from repro.simulation.intervals import (
    count_caught,
    gap_lengths,
    merge_intervals,
)
from repro.simulation.metrics import SimulationResult
from repro.topology.model import Topology
from repro.utils.linalg import cumulative_rows
from repro.utils.rng import as_generator, spawn_generators
from tests.oracles.events import ExposureTracker, IntervalAccumulator


def _leg_chords(topology: Topology) -> dict:
    """Per (origin, destination) leg, the (poi, t_in, t_out) chords."""
    size = topology.size
    table = topology.chord_table()
    return {
        (origin, destination): table.leg(origin, destination)
        for origin in range(size)
        for destination in range(size)
        if origin != destination
    }


def simulate_schedule(
    topology: Topology,
    matrix: np.ndarray,
    transitions: int,
    seed=None,
    start_state: Optional[int] = None,
    warmup: int = 0,
    record_path: bool = False,
) -> SimulationResult:
    """Per-step reference of the single-sensor simulator."""
    size = topology.size
    rng = as_generator(seed)
    state = int(rng.integers(size)) if start_state is None else start_state
    cumulative = cumulative_rows(matrix)
    travel_times = topology.travel_times
    passby = topology.passby
    pauses = topology.pause_times
    phi = topology.target_shares
    chords = _leg_chords(topology)

    # -- warmup: advance the chain without measuring ------------------- #
    for _ in range(warmup):
        state = int(
            np.searchsorted(cumulative[state], rng.random(), side="right")
        )
    start_state = state

    # -- measured run --------------------------------------------------- #
    clock = 0.0
    covered_schedule = np.zeros(size)  # sum of T_{jk,i}
    total_schedule = 0.0  # sum of T_jk
    visit_counts = np.zeros(size, dtype=np.int64)
    occupancy = np.zeros(size, dtype=np.int64)
    accumulators = [IntervalAccumulator(origin=0.0) for _ in range(size)]
    exposure = ExposureTracker(size, start_state)
    path = np.empty(transitions + 1, dtype=np.int64) if record_path \
        else None
    if path is not None:
        path[0] = state
    occupancy[state] += 1

    # The sensor begins the measured window already located at
    # ``start_state``; physically it is covering that PoI until it departs,
    # which the first transition's interval bookkeeping handles.
    for step in range(1, transitions + 1):
        origin = state
        destination = int(
            np.searchsorted(cumulative[origin], rng.random(), side="right")
        )

        duration = travel_times[origin, destination]
        covered_schedule += passby[origin, destination]
        total_schedule += duration

        if origin == destination:
            # Pause in place: continuous coverage of the origin.
            accumulators[origin].add(clock, clock + duration)
        else:
            travel = duration - pauses[destination]
            arrival = clock + travel
            for poi, t_in, t_out in chords[origin, destination]:
                accumulators[poi].add(
                    clock + t_in * travel, clock + t_out * travel
                )
            # Pause at the destination: contiguous with its entry chord.
            accumulators[destination].add(arrival, arrival + duration
                                          - travel)

        exposure.record(step, origin, destination)
        clock += duration
        state = destination
        visit_counts[destination] += 1
        occupancy[destination] += 1
        if path is not None:
            path[step] = destination

    # -- assemble metrics ------------------------------------------------ #
    coverage_shares = covered_schedule / total_schedule
    physical_shares = np.array(
        [acc.covered_time for acc in accumulators]
    ) / clock
    deviations = (covered_schedule - phi * total_schedule) / transitions
    delta_c = float(np.sum(deviations**2))

    exposure_transitions = exposure.mean_segments()
    finite = np.nan_to_num(exposure_transitions, nan=0.0)
    e_bar_transitions = float(np.sqrt(np.sum(finite**2)))

    exposure_physical = np.array(
        [acc.mean_gap() for acc in accumulators]
    )
    mean_duration = clock / transitions
    normalized = np.nan_to_num(exposure_physical / mean_duration, nan=0.0)
    e_bar_physical = float(np.sqrt(np.sum(normalized**2)))

    return SimulationResult(
        transitions=transitions,
        total_time=float(clock),
        coverage_shares=coverage_shares,
        physical_coverage_shares=physical_shares,
        delta_c=delta_c,
        exposure_transitions=exposure_transitions,
        e_bar_transitions=e_bar_transitions,
        exposure_physical=exposure_physical,
        e_bar_physical_normalized=e_bar_physical,
        mean_transition_duration=float(mean_duration),
        visit_counts=visit_counts,
        occupancy=occupancy / occupancy.sum(),
        start_state=start_state,
        end_state=state,
        path=path,
    )


def sensor_intervals(
    topology: Topology,
    matrix: np.ndarray,
    horizon: float,
    rng: np.random.Generator,
    start: Optional[int],
) -> tuple:
    """Simulate one sensor; return (per-PoI interval lists, transitions).

    Intervals are clipped to ``[0, horizon]`` and emitted in start order.
    """
    size = topology.size
    cumulative = cumulative_rows(matrix)
    travel_times = topology.travel_times
    pauses = topology.pause_times
    chords = _leg_chords(topology)

    intervals: List[List[tuple]] = [[] for _ in range(size)]
    state = int(rng.integers(size)) if start is None else start
    clock = 0.0
    transitions = 0
    while clock < horizon:
        origin = state
        destination = int(
            np.searchsorted(cumulative[origin], rng.random(), side="right")
        )
        duration = travel_times[origin, destination]
        if origin == destination:
            intervals[origin].append((clock, clock + duration))
        else:
            travel = duration - pauses[destination]
            arrival = clock + travel
            for poi, t_in, t_out in chords[origin, destination]:
                intervals[poi].append(
                    (clock + t_in * travel, clock + t_out * travel)
                )
            intervals[destination].append((arrival, arrival + duration
                                           - travel))
        clock += duration
        state = destination
        transitions += 1
    # Clip to the horizon.
    clipped: List[List[tuple]] = [[] for _ in range(size)]
    for poi in range(size):
        for lo, hi in intervals[poi]:
            if lo >= horizon:
                continue
            clipped[poi].append((lo, min(hi, horizon)))
    return clipped, transitions


def union_length(intervals: Sequence[tuple]) -> float:
    """Total length of the union of (already generated) intervals."""
    total = 0.0
    current_lo = current_hi = None
    for lo, hi in sorted(intervals, key=lambda pair: pair[0]):
        if current_hi is None:
            current_lo, current_hi = lo, hi
        elif lo <= current_hi:
            current_hi = max(current_hi, hi)
        else:
            total += current_hi - current_lo
            current_lo, current_hi = lo, hi
    if current_hi is not None:
        total += current_hi - current_lo
    return total


def simulate_team(
    topology: Topology,
    matrices: Sequence[np.ndarray],
    horizon: float,
    seed=None,
    starts: Optional[Sequence[int]] = None,
) -> TeamSimulationResult:
    """Per-event reference of the team simulator."""
    size = topology.size
    streams = spawn_generators(seed, len(matrices))
    per_sensor_intervals = []
    transitions = np.zeros(len(matrices), dtype=np.int64)
    per_sensor_shares = np.zeros((len(matrices), size))
    for index, (matrix, rng) in enumerate(zip(matrices, streams)):
        start = None if starts is None else int(starts[index])
        intervals, count = sensor_intervals(
            topology, matrix, horizon, rng, start
        )
        per_sensor_intervals.append(intervals)
        transitions[index] = count
        for poi in range(size):
            per_sensor_shares[index, poi] = union_length(
                intervals[poi]
            ) / horizon

    coverage = np.zeros(size)
    exposure_mean = np.full(size, np.nan)
    exposure_counts = np.zeros(size, dtype=np.int64)
    for poi in range(size):
        merged = sorted(
            (iv for sensor in per_sensor_intervals for iv in sensor[poi]),
            key=lambda pair: pair[0],
        )
        accumulator = IntervalAccumulator(origin=0.0)
        for lo, hi in merged:
            accumulator.add(lo, hi)
        coverage[poi] = accumulator.covered_time / horizon
        exposure_counts[poi] = accumulator.gap_count
        exposure_mean[poi] = accumulator.mean_gap()

    return TeamSimulationResult(
        sensors=len(matrices),
        horizon=float(horizon),
        coverage_shares=coverage,
        per_sensor_shares=per_sensor_shares,
        exposure_mean=exposure_mean,
        exposure_counts=exposure_counts,
        transitions=transitions,
    )


def simulate_event_capture(
    topology: Topology,
    matrix: np.ndarray,
    horizon: float,
    rates: Sequence[float],
    lifetime: float,
    seed=None,
) -> CaptureResult:
    """Event capture measured on the per-event interval lists."""
    size = topology.size
    rates = np.broadcast_to(
        np.asarray(rates, dtype=float), (size,)
    ).copy()
    schedule_rng, event_rng = spawn_generators(seed, 2)
    intervals, _ = sensor_intervals(
        topology, matrix, horizon, schedule_rng, start=None
    )

    capture = np.full(size, np.nan)
    counts = np.zeros(size, dtype=np.int64)
    coverage = np.zeros(size)
    gaps = np.full(size, np.nan)
    for poi in range(size):
        raw = np.asarray(intervals[poi], dtype=float).reshape(-1, 2)
        merged_starts, merged_ends = merge_intervals(raw[:, 0], raw[:, 1])
        covered = (
            float(np.cumsum(merged_ends - merged_starts)[-1])
            if merged_starts.size
            else 0.0
        )
        coverage[poi] = covered / horizon
        uncovered = gap_lengths(merged_starts, merged_ends, horizon=horizon)
        if uncovered.size:
            gaps[poi] = float(np.mean(uncovered))
        if rates[poi] == 0:
            continue
        count = event_rng.poisson(rates[poi] * horizon)
        counts[poi] = count
        if count == 0:
            continue
        times = np.sort(event_rng.uniform(0.0, horizon, size=count))
        caught = count_caught(
            merged_starts, merged_ends, times, lifetime, horizon
        )
        capture[poi] = caught / count
    return CaptureResult(
        capture_fraction=capture,
        event_counts=counts,
        coverage_shares=coverage,
        mean_gaps=gaps,
        horizon=float(horizon),
    )
