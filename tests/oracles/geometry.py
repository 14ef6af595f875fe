"""Reference pass-by geometry: one scalar disc intersection per leg and PoI.

These are the triple loops the vectorized builders are checked against.
Each calls the scalar specification in :mod:`repro.geometry.coverage`
once per (leg, PoI) pair:

* :func:`passby_tensor` — the dense ``T[j, k, i] = T_{jk,i}`` through
  :func:`~repro.geometry.coverage.coverage_fraction`
  (public: :func:`repro.topology.timing.passby_tensor`);
* :func:`chord_table` — the CSR chord arrays ``(counts, offsets, poi,
  t_in, t_out)`` through
  :func:`~repro.geometry.coverage.chord_through_disc`
  (public: :class:`repro.topology.model.LegCoverageTable`).

Both are ``O(M^3)`` in Python (tens of seconds at ``M = 144``), so keep
their inputs small.  ``tests/topology/test_geometry_oracles.py`` requires
the public results to equal them byte for byte.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.geometry.coverage import chord_through_disc, coverage_fraction
from repro.geometry.segments import Segment


def passby_tensor(
    positions,
    sensing_radius: float,
    speed: float,
    pause_times: np.ndarray,
) -> np.ndarray:
    """The coverage tensor ``T[j, k, i] = T_{jk,i}``, one PoI at a time."""
    if sensing_radius < 0:
        raise ValueError(f"sensing_radius must be >= 0, got {sensing_radius}")
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    pause_times = np.asarray(pause_times, dtype=float)
    count = len(positions)
    tensor = np.zeros((count, count, count))
    for j in range(count):
        for k in range(count):
            if j == k:
                # Self-loop: the sensor stays at j and pauses there.
                tensor[j, j, j] = pause_times[j]
                continue
            segment = Segment(positions[j], positions[k])
            travel_time = segment.length() / speed
            for i in range(count):
                if i == j:
                    # Paper convention: T_{jk,j} = 0 for k != j.
                    continue
                if i == k:
                    # Paper convention: the destination is credited with its
                    # pause time only.
                    tensor[j, k, k] = pause_times[k]
                    continue
                fraction = coverage_fraction(
                    segment, positions[i], sensing_radius
                )
                if fraction > 0.0:
                    tensor[j, k, i] = fraction * travel_time
    return tensor


def chord_table(positions, radius: float):
    """``(counts, offsets, poi, t_in, t_out)`` of every ordered leg."""
    size = len(positions)
    counts = np.zeros(size * size, dtype=np.int64)
    poi_ids: List[int] = []
    t_ins: List[float] = []
    t_outs: List[float] = []
    for origin in range(size):
        for destination in range(size):
            if origin == destination:
                continue
            segment = Segment(positions[origin], positions[destination])
            leg = origin * size + destination
            for poi in range(size):
                chord = chord_through_disc(
                    segment, positions[poi], radius
                )
                if chord is not None:
                    counts[leg] += 1
                    poi_ids.append(poi)
                    t_ins.append(chord[0])
                    t_outs.append(chord[1])
    return (
        counts,
        np.concatenate(([0], np.cumsum(counts)[:-1])),
        np.asarray(poi_ids, dtype=np.int64),
        np.asarray(t_ins, dtype=float),
        np.asarray(t_outs, dtype=float),
    )
