"""Event bookkeeping of the reference simulators in :mod:`tests.oracles`.

Two small accumulators, fed one interval or transition at a time:

* :class:`IntervalAccumulator` — merges a stream of non-decreasing
  coverage intervals for one PoI and records the *gaps* between merged
  intervals (the physical exposure segments) plus the total covered time.
* :class:`ExposureTracker` — measures exposure in the paper's
  transition-count convention: a segment starts one transition after the
  sensor leaves the PoI and ends on the next arrival; pass-bys do not end
  a segment (Section III-A's simplifying assumptions).
"""

from __future__ import annotations

import numpy as np


class IntervalAccumulator:
    """Streaming union of coverage intervals with gap statistics.

    Intervals must arrive with non-decreasing start times (the simulation
    emits them in timeline order).  Adjacent or overlapping intervals are
    merged; each positive gap between merged intervals is recorded as one
    physical exposure segment.
    """

    __slots__ = ("_cover_end", "_cover_start", "_covered", "_gaps_sum",
                 "_gaps_count", "_last_start", "origin")

    def __init__(self, origin: float = 0.0) -> None:
        self.origin = float(origin)
        self._cover_start = None
        self._cover_end = None
        self._covered = 0.0
        self._gaps_sum = 0.0
        self._gaps_count = 0
        self._last_start = -np.inf

    def add(self, start: float, end: float, merge_tol: float = 1e-9) -> None:
        """Add a coverage interval ``[start, end]``."""
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")
        if start < self._last_start - merge_tol:
            raise ValueError(
                "intervals must arrive in non-decreasing start order: "
                f"got start {start} after {self._last_start}"
            )
        self._last_start = max(self._last_start, start)
        if self._cover_end is None:
            # First coverage; the stretch from the origin is a gap only if
            # positive, and is counted as a segment (the PoI was exposed
            # from the start of the run).
            gap = start - self.origin
            if gap > merge_tol:
                self._gaps_sum += gap
                self._gaps_count += 1
            self._cover_start, self._cover_end = start, end
            self._covered += end - start
            return
        if start <= self._cover_end + merge_tol:
            # Overlaps or touches the current covered stretch: extend.
            if end > self._cover_end:
                self._covered += end - self._cover_end
                self._cover_end = end
            return
        # Disjoint: the space between is one exposure segment.
        self._gaps_sum += start - self._cover_end
        self._gaps_count += 1
        self._cover_start, self._cover_end = start, end
        self._covered += end - start

    @property
    def covered_time(self) -> float:
        """Total covered (merged) time so far."""
        return self._covered

    @property
    def gap_count(self) -> int:
        """Number of completed exposure segments."""
        return self._gaps_count

    @property
    def gap_total(self) -> float:
        """Summed length of completed exposure segments."""
        return self._gaps_sum

    def mean_gap(self) -> float:
        """Average exposure segment length; ``nan`` when none completed."""
        if self._gaps_count == 0:
            return float("nan")
        return self._gaps_sum / self._gaps_count


class ExposureTracker:
    """Transition-count exposure segments for every PoI.

    Mirrors the analytic convention behind Eq. (3): the segment for PoI
    ``i`` is the number of transitions from the state reached immediately
    after leaving ``i`` until the next arrival at ``i``; intermediate
    pass-bys are ignored.
    """

    __slots__ = ("_away_since", "_count", "_size", "_sum")

    def __init__(self, size: int, start_state: int) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if not 0 <= start_state < size:
            raise ValueError(
                f"start_state must lie in [0, {size}), got {start_state}"
            )
        self._size = size
        # _away_since[i] = step index at which the post-departure state was
        # entered, or -1 while the sensor is at i (or i was never left).
        self._away_since = np.full(size, -1, dtype=np.int64)
        self._sum = np.zeros(size)
        self._count = np.zeros(size, dtype=np.int64)
        # Every PoI other than the start is "away" from step 0.
        for i in range(size):
            if i != start_state:
                self._away_since[i] = 0

    def record(self, step: int, origin: int, destination: int) -> None:
        """Record the transition ``origin -> destination`` at ``step``.

        ``step`` is the index of the *arrival* state in the path (1-based
        for the first transition).
        """
        if origin == destination:
            return
        # Arrival ends the destination's exposure segment.
        if self._away_since[destination] >= 0:
            length = step - self._away_since[destination]
            if length > 0:
                self._sum[destination] += length
                self._count[destination] += 1
            self._away_since[destination] = -1
        # Departure starts the origin's segment at the arrival state.
        self._away_since[origin] = step

    def mean_segments(self) -> np.ndarray:
        """Per-PoI mean segment length in transitions (``nan`` if none)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self._count > 0, self._sum / np.maximum(self._count, 1),
                np.nan,
            )

    @property
    def counts(self) -> np.ndarray:
        """Per-PoI number of completed segments (copy)."""
        return self._count.copy()
