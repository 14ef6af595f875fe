"""Vectorized interval arithmetic over coverage timelines.

These kernels replace per-interval Python objects (the oracle's
``IntervalAccumulator`` in ``tests/oracles/events.py``) with array passes
over whole interval streams at once:

* :func:`merge_intervals` — union of intervals, sorted-by-start semantics;
* :func:`gap_lengths` — uncovered stretches of a merged timeline;
* :func:`count_caught` — how many event windows hit a merged timeline;
* :func:`grouped_coverage` — the simulation engine's hot kernel: covered
  time and exposure-gap statistics for *every* PoI in one pass over the
  concatenated, PoI-major interval stream;
* :func:`grouped_union_length` — union lengths for every group of a
  group-major interval stream (the team engine's K-way per-sensor
  coverage kernel).

``grouped_coverage`` is written to be **bit-identical** to feeding the
same per-PoI interval sequences through ``IntervalAccumulator`` one
``add`` at a time: block boundaries use the same tolerance comparisons,
per-interval covered/gap contributions are the same floating-point
subtractions, and per-PoI totals are accumulated with ``np.cumsum``
(a sequential left-to-right sum, matching the accumulator's ``+=``
order) rather than pairwise reduction.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def merge_intervals(
    starts: np.ndarray,
    ends: np.ndarray,
    merge_tol: float = 0.0,
    assume_sorted: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Union of intervals; returns merged ``(starts, ends)`` arrays.

    Intervals are stably sorted by start (unless ``assume_sorted``), then
    an interval opens a new merged block iff its start exceeds the
    running maximum end by more than ``merge_tol`` — the same rule as
    the oracle's ``IntervalAccumulator.add``.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.size == 0:
        return starts.copy(), ends.copy()
    if not assume_sorted:
        order = np.argsort(starts, kind="stable")
        starts = starts[order]
        ends = ends[order]
    running_end = np.maximum.accumulate(ends)
    new_block = np.empty(starts.size, dtype=bool)
    new_block[0] = True
    new_block[1:] = starts[1:] > running_end[:-1] + merge_tol
    block_first = np.flatnonzero(new_block)
    block_last = np.concatenate((block_first[1:] - 1, [starts.size - 1]))
    return starts[block_first], running_end[block_last]


def gap_lengths(
    merged_starts: np.ndarray,
    merged_ends: np.ndarray,
    horizon: Optional[float] = None,
    origin: float = 0.0,
) -> np.ndarray:
    """Positive uncovered stretches of a merged timeline.

    Includes the leading gap from ``origin`` to the first interval and —
    when ``horizon`` is given — the trailing gap to ``horizon``; interior
    gaps are the spaces between consecutive merged intervals.  Non-
    positive candidates are dropped.
    """
    merged_starts = np.asarray(merged_starts, dtype=float)
    merged_ends = np.asarray(merged_ends, dtype=float)
    edges_lo = np.concatenate(([origin], merged_ends))
    edges_hi = (
        np.concatenate((merged_starts, [horizon]))
        if horizon is not None
        else merged_starts
    )
    gaps = edges_hi - edges_lo[: edges_hi.size]
    return gaps[gaps > 0.0]


def count_caught(
    merged_starts: np.ndarray,
    merged_ends: np.ndarray,
    times: np.ndarray,
    lifetime: float,
    horizon: float,
) -> int:
    """Number of events whose ``[t, t + lifetime]`` window hits coverage.

    An event at ``t`` is caught iff some merged interval intersects its
    detectability window (clipped to the horizon): the first interval
    ending at or after ``t`` must start no later than the window end.
    One vectorized ``searchsorted`` replaces the per-event loop.
    """
    merged_starts = np.asarray(merged_starts, dtype=float)
    merged_ends = np.asarray(merged_ends, dtype=float)
    times = np.asarray(times, dtype=float)
    if merged_starts.size == 0 or times.size == 0:
        return 0
    window_ends = np.minimum(times + lifetime, horizon)
    index = np.searchsorted(merged_ends, times)
    inside = index < merged_starts.size
    starts_at = merged_starts[np.minimum(index, merged_starts.size - 1)]
    return int(np.count_nonzero(inside & (starts_at <= window_ends)))


def grouped_coverage(
    poi: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    size: int,
    merge_tol: float = 1e-9,
    origin: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covered time and gap statistics for every PoI in one pass.

    Input arrays hold one entry per coverage interval and must be
    **PoI-major**: sorted by ``poi`` with each PoI's intervals kept in
    their emission (timeline) order — exactly the order in which the
    per-step oracle feeds its ``IntervalAccumulator`` objects.
    Returns ``(covered, gap_sum, gap_count)`` arrays of length ``size``:
    total merged coverage, the summed lengths of completed exposure gaps
    (including the leading gap from ``origin`` when it exceeds
    ``merge_tol``; the stretch after the last interval is *not* counted),
    and the number of such gaps.  A PoI with no intervals reports zero
    coverage and zero gaps, like an accumulator that was never fed.

    Bit-exactness: within each PoI the running covered end is the
    cumulative maximum of interval ends (an exact operation), the
    covered/gap increments are the identical subtractions the
    accumulator performs, and the per-PoI totals are sequential
    ``np.cumsum`` sums over the increments in emission order — so the
    returned arrays equal the accumulator's results bit for bit, not
    merely within tolerance.
    """
    poi = np.asarray(poi, dtype=np.int64)
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    covered = np.zeros(size)
    gap_sum = np.zeros(size)
    gap_count = np.zeros(size, dtype=np.int64)
    bounds = np.searchsorted(poi, np.arange(size + 1))
    for index in range(size):
        lo, hi = int(bounds[index]), int(bounds[index + 1])
        if lo == hi:
            continue
        s = starts[lo:hi]
        e = ends[lo:hi]
        running_end = np.maximum.accumulate(e)
        new_block = s[1:] > running_end[:-1] + merge_tol
        increments = np.empty(hi - lo)
        increments[0] = e[0] - s[0]
        if hi - lo > 1:
            extension = e[1:] - running_end[:-1]
            increments[1:] = np.where(
                new_block,
                e[1:] - s[1:],
                np.where(extension > 0.0, extension, 0.0),
            )
        covered[index] = np.cumsum(increments)[-1]
        leading = s[0] - origin
        gaps = np.empty(hi - lo)
        gaps[0] = leading if leading > merge_tol else 0.0
        if hi - lo > 1:
            gaps[1:] = np.where(new_block, s[1:] - running_end[:-1], 0.0)
        gap_sum[index] = np.cumsum(gaps)[-1]
        gap_count[index] = int(leading > merge_tol) + int(
            np.count_nonzero(new_block)
        )
    return covered, gap_sum, gap_count


def grouped_union_length(
    groups: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    size: int,
) -> np.ndarray:
    """Union length of every group's intervals in one group-major pass.

    Input arrays hold one entry per interval and must be **group-major**:
    sorted by ``groups`` with each group's intervals sorted by start
    (stable, so equal starts keep their incoming order).  Returns a
    length-``size`` array of per-group union lengths; a group with no
    intervals reports zero.

    The semantics — and the floating-point operations — are those of the
    sorted streaming merge the team oracle applies per PoI
    (``union_length`` in ``tests/oracles/simulation.py``): an interval
    opens a new merged block iff its start strictly exceeds the running
    maximum end (no tolerance), each block contributes ``block_max_end -
    block_start``, and the per-group total is the *sequential* sum of
    the block contributions (``np.cumsum`` matches a running ``+=`` bit
    for bit).
    """
    groups = np.asarray(groups, dtype=np.int64)
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    totals = np.zeros(size)
    bounds = np.searchsorted(groups, np.arange(size + 1))
    for index in range(size):
        lo, hi = int(bounds[index]), int(bounds[index + 1])
        if lo == hi:
            continue
        s = starts[lo:hi]
        e = ends[lo:hi]
        # Within a block every end exceeds the previous blocks' maximum
        # (its start does, and ends dominate starts), so the global
        # running maximum equals the block-local one.
        running_end = np.maximum.accumulate(e)
        new_block = np.empty(hi - lo, dtype=bool)
        new_block[0] = True
        new_block[1:] = s[1:] > running_end[:-1]
        block_first = np.flatnonzero(new_block)
        block_last = np.concatenate((block_first[1:] - 1, [hi - lo - 1]))
        totals[index] = np.cumsum(
            running_end[block_last] - s[block_first]
        )[-1]
    return totals
