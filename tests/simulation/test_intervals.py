"""Tests for repro.simulation.intervals.

The array kernels are checked two ways: against tiny hand-computed
examples, and against the reference implementations they replace
(the oracle's ``IntervalAccumulator`` and brute-force loops) on
randomized interval streams.
"""

import numpy as np
import pytest

from repro.simulation.intervals import (
    count_caught,
    gap_lengths,
    grouped_coverage,
    merge_intervals,
)
from tests.oracles.events import IntervalAccumulator


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
