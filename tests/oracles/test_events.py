"""Tests for the oracle accumulators in tests.oracles.events."""

import numpy as np
import pytest

from tests.oracles.events import ExposureTracker, IntervalAccumulator


class TestIntervalAccumulator:
    def test_single_interval(self):
        acc = IntervalAccumulator()
        acc.add(2.0, 5.0)
        assert acc.covered_time == pytest.approx(3.0)
        # The stretch [0, 2) before first coverage is one gap.
        assert acc.gap_count == 1
        assert acc.gap_total == pytest.approx(2.0)

    def test_no_initial_gap_when_covered_from_origin(self):
        acc = IntervalAccumulator()
        acc.add(0.0, 3.0)
        assert acc.gap_count == 0

    def test_merging_overlapping(self):
        acc = IntervalAccumulator()
        acc.add(0.0, 2.0)
        acc.add(1.0, 3.0)
        assert acc.covered_time == pytest.approx(3.0)
        assert acc.gap_count == 0

    def test_merging_touching(self):
        acc = IntervalAccumulator()
        acc.add(0.0, 2.0)
        acc.add(2.0, 4.0)
        assert acc.covered_time == pytest.approx(4.0)
        assert acc.gap_count == 0

    def test_gap_recorded(self):
        acc = IntervalAccumulator()
        acc.add(0.0, 1.0)
        acc.add(4.0, 5.0)
        acc.add(7.0, 8.0)
        assert acc.gap_count == 2
        assert acc.gap_total == pytest.approx(3.0 + 2.0)
        assert acc.mean_gap() == pytest.approx(2.5)

    def test_mean_gap_nan_when_none(self):
        acc = IntervalAccumulator()
        acc.add(0.0, 1.0)
        assert np.isnan(acc.mean_gap())

    def test_contained_interval_ignored(self):
        acc = IntervalAccumulator()
        acc.add(0.0, 10.0)
        acc.add(2.0, 3.0)
        assert acc.covered_time == pytest.approx(10.0)

    def test_rejects_reversed_interval(self):
        acc = IntervalAccumulator()
        with pytest.raises(ValueError, match="end"):
            acc.add(5.0, 2.0)

    def test_rejects_unordered_starts(self):
        acc = IntervalAccumulator()
        acc.add(5.0, 6.0)
        with pytest.raises(ValueError, match="order"):
            acc.add(1.0, 2.0)

    def test_custom_origin(self):
        acc = IntervalAccumulator(origin=10.0)
        acc.add(12.0, 13.0)
        assert acc.gap_total == pytest.approx(2.0)


class TestExposureTracker:
    def test_simple_round_trip(self):
        """0 -> 1 -> 0: PoI 0's segment is 1 transition."""
        tracker = ExposureTracker(2, start_state=0)
        tracker.record(1, 0, 1)
        tracker.record(2, 1, 0)
        means = tracker.mean_segments()
        assert means[0] == pytest.approx(1.0)

    def test_longer_absence(self):
        """0 -> 1 -> 2 -> 0 on 3 states: segment for 0 is 2."""
        tracker = ExposureTracker(3, start_state=0)
        tracker.record(1, 0, 1)
        tracker.record(2, 1, 2)
        tracker.record(3, 2, 0)
        assert tracker.mean_segments()[0] == pytest.approx(2.0)

    def test_self_loops_do_not_end_segments(self):
        """Self-loop at 1 extends PoI 0's segment."""
        tracker = ExposureTracker(2, start_state=0)
        tracker.record(1, 0, 1)
        tracker.record(2, 1, 1)
        tracker.record(3, 1, 1)
        tracker.record(4, 1, 0)
        assert tracker.mean_segments()[0] == pytest.approx(3.0)

    def test_initial_absence_counted_from_zero(self):
        """States not visited initially accumulate from step 0."""
        tracker = ExposureTracker(3, start_state=0)
        tracker.record(1, 0, 2)
        # PoI 2 was away since step 0; arrival at step 1: segment 1.
        assert tracker.mean_segments()[2] == pytest.approx(1.0)

    def test_never_revisited_is_nan(self):
        tracker = ExposureTracker(3, start_state=0)
        tracker.record(1, 0, 1)
        assert np.isnan(tracker.mean_segments()[0]) is np.True_ or \
            np.isnan(tracker.mean_segments()[0])

    def test_counts(self):
        tracker = ExposureTracker(2, start_state=0)
        tracker.record(1, 0, 1)
        tracker.record(2, 1, 0)
        tracker.record(3, 0, 1)
        tracker.record(4, 1, 0)
        assert tracker.counts[0] == 2

    def test_mean_matches_expected_return_time(self):
        """Long 2-state simulation: mean segment -> R_10 = 1/b."""
        rng = np.random.default_rng(0)
        a, b = 0.3, 0.5
        matrix = np.array([[1 - a, a], [b, 1 - b]])
        tracker = ExposureTracker(2, start_state=0)
        state = 0
        for step in range(1, 100_000):
            nxt = int(rng.random() < matrix[state, 1])
            tracker.record(step, state, nxt)
            state = nxt
        means = tracker.mean_segments()
        # Leaving 0 lands at 1; return time from 1 is geometric mean 1/b.
        assert means[0] == pytest.approx(1.0 / b, rel=0.05)
        assert means[1] == pytest.approx(1.0 / a, rel=0.05)

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="size"):
            ExposureTracker(0, 0)
        with pytest.raises(ValueError, match="start_state"):
            ExposureTracker(3, 5)
