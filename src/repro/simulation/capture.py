"""Event-capture metric: how many incidents does the schedule catch?

Section III motivates coverage with event detection ("detect any
interesting event happening at i"), and the exposure-time metric exists
precisely because *incidents that occur while the sensor is away go
undetected until it returns*.  This module closes the loop: it plants
Poisson incidents at the PoIs, gives each a detectability lifetime, and
measures the fraction the schedule actually catches.

Two routes are provided:

* :func:`simulate_event_capture` — exact measurement against the physical
  coverage timeline of a simulated schedule (an incident at PoI ``i`` is
  caught iff ``i`` is covered at some point within ``lifetime`` of its
  occurrence).
* :func:`capture_probability_approximation` — the stationary
  alternating-process estimate

      ``P(caught) ~= c + (1 - c) * (1 - exp(-lifetime / m))``

  where ``c`` is the PoI's coverage fraction and ``m`` its mean exposure
  gap (memoryless-gap approximation; tested against the simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.simulation.intervals import (
    count_caught,
    gap_lengths,
    merge_intervals,
)
from repro.simulation.vectorized import horizon_interval_stream
from repro.topology.model import Topology
from repro.utils.linalg import is_row_stochastic
from repro.utils.rng import RandomState, spawn_generators
from repro.utils.validation import check_positive, check_square


@dataclass(frozen=True)
class CaptureResult:
    """Measured event capture of one simulated schedule.

    Attributes
    ----------
    capture_fraction:
        Per-PoI fraction of planted incidents that were detected.
    event_counts:
        Per-PoI number of incidents planted.
    coverage_shares:
        Per-PoI physical coverage fraction of the run (for the
        approximation comparison).
    mean_gaps:
        Per-PoI mean uncovered-interval length, seconds.
    horizon:
        Simulated physical time, seconds.
    """

    capture_fraction: np.ndarray
    event_counts: np.ndarray
    coverage_shares: np.ndarray
    mean_gaps: np.ndarray
    horizon: float

    @property
    def overall_capture(self) -> float:
        """Event-weighted overall capture fraction."""
        total = self.event_counts.sum()
        if total == 0:
            return float("nan")
        caught = (self.capture_fraction * self.event_counts)
        return float(np.nansum(caught) / total)


def simulate_event_capture(
    topology: Topology,
    matrix: np.ndarray,
    horizon: float,
    rates: Sequence[float],
    lifetime: float,
    seed: RandomState = None,
) -> CaptureResult:
    """Plant Poisson incidents and measure the schedule's capture rate.

    Parameters
    ----------
    topology / matrix:
        The physical layout and the schedule driving the sensor.
    horizon:
        Physical simulation length, seconds.
    rates:
        Per-PoI incident rates (events/second); a scalar broadcasts.
    lifetime:
        How long an incident remains detectable after it occurs,
        seconds.  An incident is caught iff its PoI is covered at some
        instant in ``[t, t + lifetime]``.
    seed:
        Master seed (independent streams for the schedule and events).
    """
    matrix = check_square("matrix", matrix)
    if matrix.shape[0] != topology.size:
        raise ValueError(
            f"matrix size {matrix.shape[0]} does not match topology "
            f"size {topology.size}"
        )
    if not is_row_stochastic(matrix):
        raise ValueError("matrix must be row-stochastic")
    horizon = check_positive("horizon", horizon)
    if lifetime < 0:
        raise ValueError(f"lifetime must be >= 0, got {lifetime}")
    size = topology.size
    rates = np.broadcast_to(
        np.asarray(rates, dtype=float), (size,)
    ).copy()
    if np.any(rates < 0):
        raise ValueError("rates must be >= 0")

    schedule_rng, event_rng = spawn_generators(seed, 2)
    poi_of, starts, ends, _ = horizon_interval_stream(
        topology, matrix, horizon, schedule_rng, start=None
    )
    # PoI-major, each PoI's intervals kept in emission order.
    order = np.argsort(poi_of, kind="stable")
    bounds = np.searchsorted(poi_of[order], np.arange(size + 1))
    starts = starts[order]
    ends = ends[order]

    capture = np.full(size, np.nan)
    counts = np.zeros(size, dtype=np.int64)
    coverage = np.zeros(size)
    gaps = np.full(size, np.nan)
    for poi in range(size):
        block = slice(bounds[poi], bounds[poi + 1])
        merged_starts, merged_ends = merge_intervals(
            starts[block], ends[block]
        )
        # Sequential cumsum keeps the sum order of the historical
        # one-interval-at-a-time accumulation.
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
        horizon=horizon,
    )


def capture_probability_approximation(
    coverage_shares, mean_gaps, lifetime: float
) -> np.ndarray:
    """Stationary estimate ``c + (1 - c)(1 - exp(-lifetime / m))``.

    ``mean_gaps`` may contain ``nan``/``inf`` for PoIs that are never
    uncovered (capture probability 1) or never covered (probability of
    the pure-arrival term only).
    """
    if lifetime < 0:
        raise ValueError(f"lifetime must be >= 0, got {lifetime}")
    c = np.asarray(coverage_shares, dtype=float)
    m = np.asarray(mean_gaps, dtype=float)
    if np.any((c < 0) | (c > 1)):
        raise ValueError("coverage shares must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        residual = np.where(
            np.isfinite(m) & (m > 0), 1.0 - np.exp(-lifetime / m), 0.0
        )
    # A PoI that is covered all the time has no gaps: probability 1.
    return np.where(np.isnan(m) & (c > 0.999999), 1.0,
                    c + (1.0 - c) * residual)
