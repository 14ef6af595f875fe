"""Tests for repro.simulation.intervals.

The array kernels are checked two ways: against tiny hand-computed
examples, and against the reference implementations they replace
(the oracle's ``IntervalAccumulator``, the team oracle's
``union_length`` and brute-force loops) on randomized interval streams,
including Hypothesis-generated ones that span every block shape of the
grouped kernels.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.intervals import (
    BLOCK_CELLS,
    count_caught,
    gap_lengths,
    grouped_coverage,
    grouped_union_length,
    merge_intervals,
)
from tests.oracles.events import IntervalAccumulator
from tests.oracles.simulation import union_length

MERGE_TOL = 1e-9


def _random_stream(rng, count, max_start=100.0):
    starts = np.sort(rng.uniform(0.0, max_start, size=count))
    lengths = rng.uniform(0.0, 5.0, size=count)
    return starts, starts + lengths


class TestMergeIntervals:
    def test_empty(self):
        starts, ends = merge_intervals(np.array([]), np.array([]))
        assert starts.size == 0 and ends.size == 0

    def test_hand_example(self):
        starts, ends = merge_intervals(
            np.array([0.0, 1.0, 5.0]), np.array([2.0, 3.0, 6.0])
        )
        assert starts.tolist() == [0.0, 5.0]
        assert ends.tolist() == [2.0 + 1.0, 6.0]

    def test_contained_interval(self):
        starts, ends = merge_intervals(
            np.array([0.0, 1.0, 1.5]), np.array([10.0, 2.0, 11.0])
        )
        assert starts.tolist() == [0.0]
        assert ends.tolist() == [11.0]

    def test_unsorted_input_is_sorted(self):
        starts, ends = merge_intervals(
            np.array([5.0, 0.0]), np.array([6.0, 1.0])
        )
        assert starts.tolist() == [0.0, 5.0]

    def test_merge_tol_bridges_small_gaps(self):
        starts, ends = merge_intervals(
            np.array([0.0, 1.0 + 5e-10]), np.array([1.0, 2.0]),
            merge_tol=1e-9,
        )
        assert starts.size == 1
        assert ends[0] == 2.0

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s, e = _random_stream(rng, int(rng.integers(1, 40)))
            order = rng.permutation(s.size)
            merged_s, merged_e = merge_intervals(s[order], e[order])
            expected = []
            for lo, hi in sorted(zip(s.tolist(), e.tolist())):
                if expected and lo <= expected[-1][1]:
                    expected[-1][1] = max(expected[-1][1], hi)
                else:
                    expected.append([lo, hi])
            assert merged_s.tolist() == [lo for lo, _ in expected]
            assert merged_e.tolist() == [hi for _, hi in expected]


class TestGapLengths:
    def test_hand_example_with_horizon(self):
        gaps = gap_lengths(
            np.array([1.0, 4.0]), np.array([2.0, 5.0]), horizon=10.0
        )
        assert gaps.tolist() == [1.0, 2.0, 5.0]

    def test_no_horizon_drops_trailing_gap(self):
        gaps = gap_lengths(np.array([1.0, 4.0]), np.array([2.0, 5.0]))
        assert gaps.tolist() == [1.0, 2.0]

    def test_full_coverage_no_gaps(self):
        gaps = gap_lengths(np.array([0.0]), np.array([10.0]), horizon=10.0)
        assert gaps.size == 0

    def test_empty_timeline_is_one_gap(self):
        gaps = gap_lengths(np.array([]), np.array([]), horizon=7.0)
        assert gaps.tolist() == [7.0]


class TestCountCaught:
    def test_hand_example(self):
        starts = np.array([2.0, 8.0])
        ends = np.array([4.0, 9.0])
        # t=0: window [0, 1] misses; t=3 inside; t=5: window [5, 6]
        # misses; t=7.5: window reaches 8.5 -> caught.
        times = np.array([0.0, 3.0, 5.0, 7.5])
        assert count_caught(starts, ends, times, 1.0, 10.0) == 2

    def test_window_clipped_to_horizon(self):
        starts, ends = np.array([9.5]), np.array([10.0])
        assert count_caught(starts, ends, np.array([9.0]), 100.0, 9.2) == 0

    def test_empty_cases(self):
        assert count_caught(np.array([]), np.array([]),
                            np.array([1.0]), 1.0, 10.0) == 0
        assert count_caught(np.array([0.0]), np.array([1.0]),
                            np.array([]), 1.0, 10.0) == 0

    def test_random_against_per_event_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s, e = _random_stream(rng, int(rng.integers(1, 30)))
            merged_s, merged_e = merge_intervals(s, e)
            times = np.sort(rng.uniform(0.0, 110.0, size=25))
            lifetime = float(rng.uniform(0.0, 4.0))
            horizon = 110.0
            expected = 0
            for t in times:
                window_end = min(t + lifetime, horizon)
                idx = int(np.searchsorted(merged_e, t))
                if idx < merged_s.size and merged_s[idx] <= window_end:
                    expected += 1
            assert count_caught(
                merged_s, merged_e, times, lifetime, horizon
            ) == expected


class TestGroupedCoverage:
    def test_matches_interval_accumulator_bitwise(self):
        rng = np.random.default_rng(3)
        size = 6
        for _ in range(10):
            count = int(rng.integers(1, 120))
            poi = np.sort(rng.integers(size, size=count))
            starts = np.empty(count)
            ends = np.empty(count)
            # Per PoI, emit intervals with non-decreasing starts (the
            # accumulator's contract).
            for index in range(size):
                mask = poi == index
                n = int(mask.sum())
                s, e = _random_stream(rng, n) if n else (np.empty(0),) * 2
                starts[mask] = s
                ends[mask] = e
            covered, gap_sum, gap_count = grouped_coverage(
                poi, starts, ends, size
            )
            for index in range(size):
                acc = IntervalAccumulator(origin=0.0)
                mask = poi == index
                for lo, hi in zip(starts[mask], ends[mask]):
                    acc.add(lo, hi)
                # Bit-identical, not approximately equal.
                assert covered[index] == acc.covered_time
                assert gap_sum[index] == acc.gap_total
                assert gap_count[index] == acc.gap_count

    def test_empty_poi_reports_zero(self):
        covered, gap_sum, gap_count = grouped_coverage(
            np.array([2]), np.array([1.0]), np.array([3.0]), size=4
        )
        assert covered.tolist() == [0.0, 0.0, 2.0, 0.0]
        assert gap_sum.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert gap_count.tolist() == [0, 0, 1, 0]

    def test_leading_gap_under_tolerance_not_counted(self):
        covered, gap_sum, gap_count = grouped_coverage(
            np.array([0]), np.array([5e-10]), np.array([1.0]), size=1
        )
        assert gap_count[0] == 0
        assert gap_sum[0] == 0.0

    def test_rejects_nothing_but_handles_single_interval(self):
        covered, gap_sum, gap_count = grouped_coverage(
            np.array([0]), np.array([2.0]), np.array([5.0]), size=1
        )
        assert covered[0] == 3.0
        assert gap_sum[0] == 2.0
        assert gap_count[0] == 1


# ---------------------------------------------------------------------- #
# Differential tests: the grouped kernels against the per-PoI oracles,
# bit for bit (``tobytes``), so any change of summation order fails.
# ---------------------------------------------------------------------- #

#: Per-group interval counts spanning several length classes, from
#: empty and one-interval groups to rows past a quarter of the cap.
_LENGTHS = [0, 1, 2, 3, 5, 9, 17, 40, 100, 300, 1100, 2100]


def _timeline(rng, count):
    """``count`` intervals of one group with non-decreasing starts.

    Mixes equal starts, zero-length intervals, starts exactly
    ``MERGE_TOL`` past the running covered end (a gap the tolerance
    bridges), and plain gaps; the first start may sit exactly at the
    tolerance past the origin.
    """
    starts = np.empty(count)
    ends = np.empty(count)
    running_end = 0.0
    for index in range(count):
        mode = int(rng.integers(4))
        if index == 0:
            start = float(rng.choice([0.0, MERGE_TOL, 0.5,
                                      rng.uniform(0.0, 10.0)]))
        elif mode == 0:
            start = starts[index - 1]
        elif mode == 1:
            start = running_end + MERGE_TOL
        elif mode == 2:
            start = starts[index - 1] + rng.uniform(0.0, 3.0)
        else:
            start = running_end + rng.uniform(0.0, 5.0)
        length = float(rng.choice([0.0, rng.uniform(0.0, 1.0),
                                   rng.uniform(0.0, 20.0)]))
        starts[index] = start
        ends[index] = start + length
        running_end = max(running_end, ends[index])
    return starts, ends


@st.composite
def grouped_timelines(draw):
    """Per-group ``(starts, ends)`` timelines with skewed lengths."""
    lengths = draw(st.lists(st.sampled_from(_LENGTHS), min_size=1,
                            max_size=24))
    lengths += [1] * draw(st.integers(0, 48))
    if draw(st.booleans()):
        lengths.append(BLOCK_CELLS + draw(st.integers(1, 64)))
    lengths = draw(st.permutations(lengths))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [_timeline(rng, count) for count in lengths]


def _stream(timelines):
    """Concatenate group timelines into a group-major stream."""
    groups = np.repeat(np.arange(len(timelines)),
                       [s.size for s, _ in timelines])
    starts = np.concatenate([s for s, _ in timelines])
    ends = np.concatenate([e for _, e in timelines])
    return groups, starts, ends


def _accumulate(pairs):
    accumulator = IntervalAccumulator(origin=0.0)
    for lo, hi in pairs:
        accumulator.add(lo, hi, merge_tol=MERGE_TOL)
    return accumulator


def _assert_coverage_matches(poi, starts, ends, per_poi):
    covered, gap_sum, gap_count = grouped_coverage(
        poi, starts, ends, len(per_poi), merge_tol=MERGE_TOL
    )
    accumulators = [_accumulate(pairs) for pairs in per_poi]
    assert covered.tobytes() == np.array(
        [a.covered_time for a in accumulators]).tobytes()
    assert gap_sum.tobytes() == np.array(
        [a.gap_total for a in accumulators]).tobytes()
    assert gap_count.tolist() == [a.gap_count for a in accumulators]


class TestGroupedKernelsDifferential:
    @settings(max_examples=40, deadline=None)
    @given(grouped_timelines())
    def test_grouped_coverage_matches_accumulator(self, timelines):
        poi, starts, ends = _stream(timelines)
        _assert_coverage_matches(
            poi, starts, ends,
            [list(zip(s.tolist(), e.tolist())) for s, e in timelines],
        )

    @settings(max_examples=40, deadline=None)
    @given(grouped_timelines())
    def test_grouped_union_length_matches_oracle(self, timelines):
        groups, starts, ends = _stream(timelines)
        totals = grouped_union_length(groups, starts, ends, len(timelines))
        expected = [union_length(list(zip(s.tolist(), e.tolist())))
                    for s, e in timelines]
        assert totals.tobytes() == np.array(expected).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_team_groups_match_oracles(self, sensors, size, seed):
        """Team-style streams: per-sensor unions over groups
        ``sensor * size + poi`` and the K-way union over PoIs, both
        ordered by the stable lexsort the team engine uses."""
        rng = np.random.default_rng(seed)
        per_sensor = [
            [_timeline(rng, int(rng.choice(_LENGTHS[:9])))
             for _ in range(size)]
            for _ in range(sensors)
        ]
        # Each sensor's emission order: its PoIs' intervals interleaved
        # in start order; sensors concatenated sensor-major.
        sensor_ids, poi_ids, starts, ends = [], [], [], []
        for sensor, timelines in enumerate(per_sensor):
            poi, s, e = _stream(timelines)
            emission = np.argsort(s, kind="stable")
            sensor_ids.append(np.full(s.size, sensor))
            poi_ids.append(poi[emission])
            starts.append(s[emission])
            ends.append(e[emission])
        sensor_ids = np.concatenate(sensor_ids)
        poi = np.concatenate(poi_ids)
        starts = np.concatenate(starts)
        ends = np.concatenate(ends)

        groups = sensor_ids * size + poi
        order = np.lexsort((starts, groups))
        shares = grouped_union_length(
            groups[order], starts[order], ends[order], sensors * size
        )
        expected = [union_length(list(zip(s.tolist(), e.tolist())))
                    for timelines in per_sensor for s, e in timelines]
        assert shares.tobytes() == np.array(expected).tobytes()

        order = np.lexsort((starts, poi))
        per_poi = [
            sorted(
                (pair for timelines in per_sensor
                 for pair in zip(timelines[index][0].tolist(),
                                 timelines[index][1].tolist())),
                key=lambda pair: pair[0],
            )
            for index in range(size)
        ]
        _assert_coverage_matches(
            poi[order], starts[order], ends[order], per_poi
        )


class TestBlockMemory:
    def test_long_stream_peak_is_bounded(self):
        """One call on a 10^6-interval, 64-PoI stream allocates well
        under 8 MiB: blocks are capped at ``BLOCK_CELLS`` cells, where a
        single padded layout of the whole stream would take ~70 MiB."""
        per_poi = 15_625
        poi = np.repeat(np.arange(64), per_poi)
        starts = np.tile(np.arange(per_poi) * 10.0, 64)
        ends = starts + (np.arange(poi.size) % 13)
        for kernel in (grouped_coverage, grouped_union_length):
            tracemalloc.start()
            try:
                kernel(poi, starts, ends, 64)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, (kernel.__name__, peak)
