"""Tests for repro.simulation.capture (event-capture metric)."""

import numpy as np
import pytest

from repro import paper_topology, uniform_matrix
from repro.simulation.capture import (
    capture_probability_approximation,
    simulate_event_capture,
)
from repro.simulation.intervals import (
    count_caught,
    gap_lengths,
    merge_intervals,
)


# List-of-tuples wrappers over the array kernels, so the cases below
# read as interval lists.


def _merge(intervals) -> list:
    raw = np.asarray(list(intervals), dtype=float).reshape(-1, 2)
    starts, ends = merge_intervals(raw[:, 0], raw[:, 1])
    return list(zip(starts.tolist(), ends.tolist()))


def _gap_lengths(merged, horizon: float) -> list:
    raw = np.asarray(list(merged), dtype=float).reshape(-1, 2)
    return gap_lengths(raw[:, 0], raw[:, 1], horizon=horizon).tolist()


def _count_caught(merged, times, lifetime: float, horizon: float) -> int:
    raw = np.asarray(list(merged), dtype=float).reshape(-1, 2)
    return count_caught(raw[:, 0], raw[:, 1], times, lifetime, horizon)


@pytest.fixture(scope="module")
def topology():
    return paper_topology(1)


@pytest.fixture(scope="module")
def run(topology):
    return simulate_event_capture(
        topology, uniform_matrix(4), horizon=200_000.0,
        rates=0.002, lifetime=30.0, seed=0,
    )


class TestHelpers:
    def test_merge(self):
        assert _merge([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_empty(self):
        assert _merge([]) == []

    def test_gap_lengths(self):
        gaps = _gap_lengths([(1.0, 2.0), (4.0, 5.0)], horizon=10.0)
        assert gaps == [1.0, 2.0, 5.0]

    def test_gap_lengths_full_coverage(self):
        assert _gap_lengths([(0.0, 10.0)], horizon=10.0) == []

    def test_count_caught_inside_interval(self):
        merged = [(10.0, 20.0)]
        caught = _count_caught(
            merged, np.array([15.0]), lifetime=0.0, horizon=100.0
        )
        assert caught == 1

    def test_count_caught_by_waiting(self):
        merged = [(10.0, 20.0)]
        # Event at t=5 with lifetime 6 survives until coverage at 10.
        assert _count_caught(
            merged, np.array([5.0]), 6.0, 100.0
        ) == 1
        # Lifetime 4 expires at 9, before coverage.
        assert _count_caught(
            merged, np.array([5.0]), 4.0, 100.0
        ) == 0

    def test_count_caught_no_coverage(self):
        assert _count_caught([], np.array([5.0]), 100.0, 100.0) == 0


class TestValidation:
    def test_rejects_bad_horizon(self, topology):
        with pytest.raises(ValueError, match="horizon"):
            simulate_event_capture(
                topology, uniform_matrix(4), 0.0, 0.1, 1.0
            )

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -np.inf, 0.0])
    def test_horizon_must_be_positive_and_finite(self, topology, horizon):
        with pytest.raises(ValueError, match="horizon must be"):
            simulate_event_capture(
                topology, uniform_matrix(4), horizon, 0.1, 1.0
            )

    def test_rejects_negative_lifetime(self, topology):
        with pytest.raises(ValueError, match="lifetime"):
            simulate_event_capture(
                topology, uniform_matrix(4), 100.0, 0.1, -1.0
            )

    def test_rejects_negative_rates(self, topology):
        with pytest.raises(ValueError, match="rates"):
            simulate_event_capture(
                topology, uniform_matrix(4), 100.0, -0.1, 1.0
            )

    def test_rejects_size_mismatch(self, topology):
        with pytest.raises(ValueError, match="size"):
            simulate_event_capture(
                topology, uniform_matrix(3), 100.0, 0.1, 1.0
            )

    def test_rejects_non_stochastic(self, topology):
        with pytest.raises(ValueError, match="stochastic"):
            simulate_event_capture(
                topology, np.ones((4, 4)), 100.0, 0.1, 1.0
            )


class TestCapture:
    def test_fractions_in_unit_interval(self, run):
        valid = run.capture_fraction[~np.isnan(run.capture_fraction)]
        assert np.all((valid >= 0) & (valid <= 1))

    def test_reproducible(self, topology):
        a = simulate_event_capture(
            topology, uniform_matrix(4), 20_000.0, 0.01, 30.0, seed=3
        )
        b = simulate_event_capture(
            topology, uniform_matrix(4), 20_000.0, 0.01, 30.0, seed=3
        )
        np.testing.assert_array_equal(
            a.capture_fraction, b.capture_fraction
        )

    def test_longer_lifetime_catches_more(self, topology):
        short = simulate_event_capture(
            topology, uniform_matrix(4), 100_000.0, 0.005, 10.0, seed=1
        )
        long = simulate_event_capture(
            topology, uniform_matrix(4), 100_000.0, 0.005, 200.0, seed=1
        )
        assert long.overall_capture > short.overall_capture

    def test_zero_rate_poi_has_no_events(self, topology):
        result = simulate_event_capture(
            topology, uniform_matrix(4), 10_000.0,
            rates=[0.01, 0.0, 0.01, 0.01], lifetime=10.0, seed=2,
        )
        assert result.event_counts[1] == 0
        assert np.isnan(result.capture_fraction[1])

    def test_capture_at_least_coverage(self, run):
        """With a positive lifetime, capture beats instant coverage."""
        valid = ~np.isnan(run.capture_fraction)
        assert np.all(
            run.capture_fraction[valid]
            >= run.coverage_shares[valid] - 0.05
        )

    def test_overall_is_weighted_mean(self, run):
        valid = ~np.isnan(run.capture_fraction)
        expected = (
            (run.capture_fraction[valid] * run.event_counts[valid]).sum()
            / run.event_counts.sum()
        )
        assert run.overall_capture == pytest.approx(expected)


class TestApproximation:
    def test_matches_simulation(self, run):
        approx = capture_probability_approximation(
            run.coverage_shares, run.mean_gaps, 30.0
        )
        valid = ~np.isnan(run.capture_fraction)
        np.testing.assert_allclose(
            approx[valid], run.capture_fraction[valid], atol=0.1
        )

    def test_zero_lifetime_reduces_to_coverage(self):
        approx = capture_probability_approximation(
            np.array([0.3]), np.array([50.0]), 0.0
        )
        np.testing.assert_allclose(approx, [0.3])

    def test_infinite_gap_reduces_to_coverage(self):
        approx = capture_probability_approximation(
            np.array([0.3]), np.array([np.inf]), 100.0
        )
        np.testing.assert_allclose(approx, [0.3])

    def test_always_covered_is_one(self):
        approx = capture_probability_approximation(
            np.array([1.0]), np.array([np.nan]), 5.0
        )
        np.testing.assert_allclose(approx, [1.0])

    def test_monotone_in_lifetime(self):
        c = np.array([0.2])
        m = np.array([40.0])
        values = [
            capture_probability_approximation(c, m, tau)[0]
            for tau in (0.0, 10.0, 100.0, 1000.0)
        ]
        assert values == sorted(values)
        assert values[-1] <= 1.0 + 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="lifetime"):
            capture_probability_approximation(
                np.array([0.5]), np.array([1.0]), -1.0
            )
        with pytest.raises(ValueError, match="shares"):
            capture_probability_approximation(
                np.array([1.5]), np.array([1.0]), 1.0
            )
