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

Both grouped kernels loop in Python over *blocks* of groups, not over
single groups.  Non-empty groups are bucketed by length class
(``ceil(log2(n))`` of their interval count) and each bucket is gathered
into a ``(rows, width)`` array, one row per group, padded after each
row's last interval; every pass then runs along ``axis=1``.  One module
constant, :data:`BLOCK_CELLS`, caps the padded cells of a block, so a
block's temporaries stay bounded whatever the stream length, and a
group wider than a quarter of the cap is a one-row block, a view of the
stream with the same passes as a per-group loop.

Both are **bit-identical** to their per-group references:
``grouped_coverage`` to feeding the same per-PoI interval sequences
through ``IntervalAccumulator`` one ``add`` at a time, and
``grouped_union_length`` to the team oracle's ``union_length``.  Block
boundaries use the same tolerance comparisons, per-interval
contributions are the same floating-point subtractions, and totals are
sequential sums: ``np.maximum.accumulate`` and ``np.cumsum`` along a
row are left-to-right chains, exactly the accumulator's ``+=`` order,
rather than pairwise reductions, and each total is read at its row's
last real column, before any padding.
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


#: Cap on the padded cells of one block of the grouped kernels.  Each
#: float temporary of a block holds at most ``8 * BLOCK_CELLS`` bytes
#: (64 KiB), whatever the stream length.  A group wider than a quarter
#: of the cap is a one-row block of its own length: gathering two or
#: three long rows costs more than the per-block calls it saves.
BLOCK_CELLS = 1 << 13


def _row_blocks(bounds: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Gather the non-empty groups of a grouped stream into row blocks.

    ``bounds[g]:bounds[g + 1]`` is group ``g``'s slice of the stream.
    Groups are ordered by length and bucketed by length class
    (``ceil(log2(n))``), so the rows of a block differ in length by less
    than 2x; each class is cut into blocks of at most
    :data:`BLOCK_CELLS` padded cells, or one row each when its rows are
    wider than a quarter of the cap.

    Yields ``(ids, s, e, last)``: the block's group ids, its
    ``(rows, width)`` start and end arrays, and each row's last real
    column.  Row ``r`` holds group ``ids[r]``'s intervals in stream
    order, padded after its last interval by repeating that interval:
    the padding leaves the row's running maximum end unchanged and, for
    intervals with ``end >= start``, never opens a merged block.  A
    one-row block is a view of the stream.
    """
    lengths = np.diff(bounds)
    order = np.argsort(lengths, kind="stable")
    counts = lengths[order]
    first = int(np.searchsorted(counts, 1))
    if first == counts.size:
        return
    # ceil(log2(n)) is the bit length of n - 1: frexp's exponent.
    classes = np.frexp(counts[first:] - 1)[1]
    edges = [first, *(np.flatnonzero(np.diff(classes)) + first + 1).tolist(),
             counts.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        widest = int(counts[hi - 1])
        step = BLOCK_CELLS // widest if 4 * widest <= BLOCK_CELLS else 1
        for row in range(lo, hi, step):
            end = min(row + step, hi)
            ids = order[row:end]
            width = int(counts[end - 1])
            last = counts[row:end] - 1
            if ids.size == 1:
                begin = int(bounds[ids[0]])
                yield (ids, starts[None, begin:begin + width],
                       ends[None, begin:begin + width], last)
                continue
            index = bounds[ids][:, None] + np.minimum(
                np.arange(width), last[:, None]
            )
            yield ids, starts[index], ends[index], last


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
    per-step oracle feeds its ``IntervalAccumulator`` objects.  Every
    interval has ``end >= start`` and ``merge_tol >= 0`` (the
    accumulator rejects the former).
    Returns ``(covered, gap_sum, gap_count)`` arrays of length ``size``:
    total merged coverage, the summed lengths of completed exposure gaps
    (including the leading gap from ``origin`` when it exceeds
    ``merge_tol``; the stretch after the last interval is *not* counted),
    and the number of such gaps.  A PoI with no intervals reports zero
    coverage and zero gaps, like an accumulator that was never fed.

    PoIs are processed in blocks (see :func:`_row_blocks`), one row per
    PoI.  Bit-exactness: along each row the running covered end is the
    cumulative maximum of interval ends (an exact operation), the
    covered/gap increments are the identical subtractions the
    accumulator performs, and the per-PoI totals are read off a
    row-wise ``np.cumsum`` at the row's last real column — a sequential
    left-to-right sum over the increments in emission order — so the
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
    for ids, s, e, last in _row_blocks(bounds, starts, ends):
        rows = np.arange(ids.size)
        running_end = np.maximum.accumulate(e, axis=1)
        previous = running_end[:, :-1]
        new_block = s[:, 1:] > previous + merge_tol
        increments = np.empty(s.shape)
        increments[:, 0] = e[:, 0] - s[:, 0]
        extension = e[:, 1:] - previous
        increments[:, 1:] = np.where(
            new_block,
            e[:, 1:] - s[:, 1:],
            np.where(extension > 0.0, extension, 0.0),
        )
        covered[ids] = np.cumsum(increments, axis=1)[rows, last]
        leading = s[:, 0] - origin
        opened = leading > merge_tol
        gaps = np.empty(s.shape)
        gaps[:, 0] = np.where(opened, leading, 0.0)
        gaps[:, 1:] = np.where(new_block, s[:, 1:] - previous, 0.0)
        gap_sum[ids] = np.cumsum(gaps, axis=1)[rows, last]
        gap_count[ids] = opened + np.count_nonzero(new_block, axis=1)
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
    (stable, so equal starts keep their incoming order), and every
    interval has ``end >= start``.  Returns a length-``size`` array of
    per-group union lengths; a group with no intervals reports zero.

    The semantics — and the floating-point operations — are those of the
    sorted streaming merge the team oracle applies per PoI
    (``union_length`` in ``tests/oracles/simulation.py``): an interval
    opens a new merged block iff its start strictly exceeds the running
    maximum end (no tolerance), each block contributes ``block_max_end -
    block_start``, and the per-group total is the *sequential* sum of
    the block contributions.  Groups are processed in blocks (see
    :func:`_row_blocks`): each row's contributions are laid out
    left-aligned in a ``(rows, blocks)`` array and summed with a
    row-wise ``np.cumsum``, read at the row's last contribution, which
    matches a running ``+=`` bit for bit.
    """
    groups = np.asarray(groups, dtype=np.int64)
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    totals = np.zeros(size)
    bounds = np.searchsorted(groups, np.arange(size + 1))
    for ids, s, e, _ in _row_blocks(bounds, starts, ends):
        # Within a merged block every end exceeds the previous blocks'
        # maximum (its start does, and ends dominate starts), so the
        # row's running maximum equals the block-local one.
        running_end = np.maximum.accumulate(e, axis=1)
        new_block = np.empty(s.shape, dtype=bool)
        new_block[:, 0] = True
        np.greater(s[:, 1:], running_end[:, :-1], out=new_block[:, 1:])
        # Flat positions, row-major: a row's last block ends where the
        # next row's first begins (padding keeps the running end).
        block_first = np.flatnonzero(new_block)
        block_last = np.empty_like(block_first)
        block_last[:-1] = block_first[1:] - 1
        block_last[-1] = new_block.size - 1
        contributions = (
            running_end.ravel()[block_last] - s.ravel()[block_first]
        )
        if ids.size == 1:
            totals[ids] = np.cumsum(contributions)[-1]
            continue
        # Lay each row's contributions out left-aligned, padded by
        # repeating its last one, and sum them row by row.
        first = np.searchsorted(
            block_first, np.arange(ids.size) * s.shape[1]
        )
        counts = np.diff(first, append=block_first.size)
        index = first[:, None] + np.minimum(
            np.arange(int(counts.max())), counts[:, None] - 1
        )
        totals[ids] = np.cumsum(contributions[index], axis=1)[
            np.arange(ids.size), counts - 1
        ]
    return totals
