"""Tests for repro.multisensor (team simulation and approximations)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import paper_topology, uniform_matrix
from repro.multisensor import (
    check_team_result,
    sensors_needed_for_coverage,
    simulate_team,
    simulate_team_repeatedly,
    team_coverage_approximation,
    team_exposure_approximation,
)
from repro.service import request_from_dict, request_to_dict, team_request
from repro.simulation.intervals import (
    gap_lengths,
    grouped_coverage,
    grouped_union_length,
    merge_intervals,
)
from repro.utils.rng import spawn_generators
from tests.oracles.simulation import union_length


@pytest.fixture(scope="module")
def topology():
    return paper_topology(1)


@pytest.fixture(scope="module")
def team_run(topology):
    matrix = uniform_matrix(4)
    return simulate_team(
        topology, [matrix, matrix, matrix], horizon=120_000.0, seed=0
    )


class TestUnionLength:
    def test_disjoint(self):
        assert union_length([(0, 1), (2, 3)]) == pytest.approx(2.0)

    def test_overlapping(self):
        assert union_length([(0, 2), (1, 3)]) == pytest.approx(3.0)

    def test_unsorted_input(self):
        assert union_length([(5, 6), (0, 2)]) == pytest.approx(3.0)

    def test_empty(self):
        assert union_length([]) == 0.0

    def test_nested(self):
        assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


class TestValidation:
    def test_rejects_empty_team(self, topology):
        with pytest.raises(ValueError, match="at least one"):
            simulate_team(topology, [], horizon=100.0)

    def test_rejects_bad_horizon(self, topology):
        with pytest.raises(ValueError, match="horizon"):
            simulate_team(topology, [uniform_matrix(4)], horizon=0.0)

    def test_rejects_size_mismatch(self, topology):
        with pytest.raises(ValueError, match="size"):
            simulate_team(topology, [uniform_matrix(3)], horizon=100.0)

    def test_rejects_non_stochastic(self, topology):
        with pytest.raises(ValueError, match="stochastic"):
            simulate_team(topology, [np.ones((4, 4))], horizon=100.0)

    def test_rejects_starts_length(self, topology):
        with pytest.raises(ValueError, match="starts"):
            simulate_team(
                topology, [uniform_matrix(4)], horizon=100.0,
                starts=[0, 1],
            )

    @pytest.mark.parametrize("entry", [
        "simulate_team", "simulate", "team_request", "request_from_dict",
    ])
    @pytest.mark.parametrize("last", [False, True], ids=["-1", "M"])
    def test_rejects_out_of_range_start(self, topology, entry, last):
        """A start outside [0, M) raises instead of wrapping around or
        failing inside the sampler."""
        start = topology.size if last else -1
        matrix = uniform_matrix(topology.size)
        with pytest.raises(ValueError, match=r"starts\[1\]"):
            if entry == "simulate_team":
                simulate_team(
                    topology, [matrix] * 2, horizon=100.0, starts=[0, start]
                )
            elif entry == "simulate":
                repro.simulate(
                    topology, matrix, kind="team", sensors=2,
                    horizon=100.0, options={"starts": [0, start]},
                )
            elif entry == "team_request":
                team_request(
                    topology, [matrix] * 2, horizon=100.0,
                    options={"starts": [0, start]},
                )
            else:
                payload = request_to_dict(team_request(
                    topology, [matrix] * 2, horizon=100.0,
                    options={"starts": [0, 1]},
                ))
                payload["params"]["options"]["starts"] = [0, start]
                request_from_dict(payload)


class TestTeamSimulation:
    def test_result_shapes(self, team_run):
        assert team_run.sensors == 3
        assert team_run.size == 4
        assert team_run.coverage_shares.shape == (4,)
        assert team_run.per_sensor_shares.shape == (3, 4)
        assert team_run.transitions.shape == (3,)

    def test_reproducible(self, topology):
        matrix = uniform_matrix(4)
        a = simulate_team(topology, [matrix] * 2, horizon=5000.0, seed=3)
        b = simulate_team(topology, [matrix] * 2, horizon=5000.0, seed=3)
        np.testing.assert_array_equal(
            a.coverage_shares, b.coverage_shares
        )

    def test_union_at_least_best_individual(self, team_run):
        best_individual = team_run.per_sensor_shares.max(axis=0)
        assert np.all(
            team_run.coverage_shares >= best_individual - 1e-12
        )

    def test_union_at_most_sum(self, team_run):
        total = team_run.per_sensor_shares.sum(axis=0)
        assert np.all(team_run.coverage_shares <= total + 1e-12)

    def test_team_shrinks_exposure(self, topology):
        matrix = uniform_matrix(4)
        solo = simulate_team(
            topology, [matrix], horizon=120_000.0, seed=1
        )
        trio = simulate_team(
            topology, [matrix] * 3, horizon=120_000.0, seed=1
        )
        assert np.nanmean(trio.exposure_mean) \
            < np.nanmean(solo.exposure_mean)

    def test_heterogeneous_team(self, topology, rng):
        slow = 0.9 * np.eye(4) + 0.1 * uniform_matrix(4)
        fast = uniform_matrix(4)
        result = simulate_team(
            topology, [slow, fast], horizon=50_000.0, seed=2
        )
        # The lazy sensor spends most of its time parked at PoIs, so its
        # total covered fraction exceeds the always-traveling one's.
        assert result.per_sensor_shares[0].sum() \
            > result.per_sensor_shares[1].sum()

    def test_fixed_starts(self, topology):
        matrix = uniform_matrix(4)
        result = simulate_team(
            topology, [matrix], horizon=1000.0, seed=0, starts=[2]
        )
        assert result.sensors == 1


#: Hypothesis strategy: a team of per-sensor interval lists inside
#: [0, HORIZON], as (start, length) pairs.
HORIZON = 100.0
_interval = st.tuples(
    st.floats(min_value=0.0, max_value=HORIZON * 0.99),
    st.floats(min_value=1e-6, max_value=HORIZON / 4),
)
_sensor_intervals = st.lists(_interval, min_size=0, max_size=12)
_team_intervals = st.lists(_sensor_intervals, min_size=1, max_size=4)


def _team_arrays(team):
    """Concatenate a team's (start, length) pairs, clipped to HORIZON."""
    starts, ends = [], []
    for sensor in team:
        for lo, length in sensor:
            starts.append(lo)
            ends.append(min(lo + length, HORIZON))
    return np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)


class TestUnionProperties:
    """K-way union identities between the shared interval kernels."""

    @settings(max_examples=60, deadline=None)
    @given(_team_intervals)
    def test_kway_union_equals_merge_of_concatenation(self, team):
        """Union coverage over a K-sensor concatenated stream equals
        merge_intervals over the same concatenated intervals."""
        starts, ends = _team_arrays(team)
        poi = np.zeros(starts.size, dtype=np.int64)
        order = np.argsort(starts, kind="stable")
        covered, _, _ = grouped_coverage(
            poi[order], starts[order], ends[order], 1, merge_tol=0.0
        )
        merged_starts, merged_ends = merge_intervals(starts, ends)
        assert covered[0] == pytest.approx(
            float(np.sum(merged_ends - merged_starts)), abs=1e-9
        )
        union = grouped_union_length(
            poi[order], starts[order], ends[order], 1
        )
        assert union[0] == pytest.approx(covered[0], abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(_team_intervals)
    def test_gaps_are_complement_of_union_within_horizon(self, team):
        """Covered time plus all uncovered gaps (leading, interior,
        trailing) tiles the horizon exactly."""
        starts, ends = _team_arrays(team)
        merged_starts, merged_ends = merge_intervals(starts, ends)
        covered = float(np.sum(merged_ends - merged_starts))
        gaps = gap_lengths(
            merged_starts, merged_ends, horizon=HORIZON, origin=0.0
        )
        assert covered + float(gaps.sum()) == pytest.approx(
            HORIZON, rel=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(_team_intervals, st.integers(min_value=1, max_value=5))
    def test_grouped_union_matches_per_group_reference(self, team, size):
        """grouped_union_length over scattered groups equals the scalar
        oracle's union_length per group."""
        starts, ends = _team_arrays(team)
        rng = np.random.default_rng(starts.size + size)
        poi = rng.integers(0, size, starts.size)
        order = np.argsort(starts, kind="stable")
        order = order[np.argsort(poi[order], kind="stable")]
        union = grouped_union_length(
            poi[order], starts[order], ends[order], size
        )
        for group in range(size):
            reference = union_length(
                [(s, e) for g, s, e in zip(poi, starts, ends)
                 if g == group]
            )
            assert union[group] == pytest.approx(reference, abs=1e-9)

    def test_engine_union_consistency_seeded(self, topology):
        """Simulated team results satisfy every union invariant."""
        rng = np.random.default_rng(99)
        for seed in range(4):
            raw = rng.random((4, 4)) + np.eye(4)
            matrix = raw / raw.sum(axis=1, keepdims=True)
            result = simulate_team(
                topology, [matrix] * (seed + 1),
                horizon=float(rng.uniform(100.0, 20_000.0)),
                seed=seed,
            )
            check_team_result(result)


class TestTeamRepeatedly:
    def test_returns_independent_replications(self, topology):
        matrix = uniform_matrix(4)
        results = simulate_team_repeatedly(
            topology, [matrix] * 2, horizon=5_000.0, repetitions=3,
            seed=7,
        )
        assert len(results) == 3
        shares = [r.coverage_shares for r in results]
        assert not np.array_equal(shares[0], shares[1])

    def test_bit_identical_across_backends(self, topology):
        matrix = uniform_matrix(4)
        serial = simulate_team_repeatedly(
            topology, [matrix] * 2, horizon=5_000.0, repetitions=4,
            seed=2, executor="serial",
        )
        threaded = simulate_team_repeatedly(
            topology, [matrix] * 2, horizon=5_000.0, repetitions=4,
            seed=2, executor="thread",
        )
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(
                a.coverage_shares, b.coverage_shares
            )
            np.testing.assert_array_equal(
                a.exposure_mean, b.exposure_mean
            )

    def test_replications_match_direct_runs(self, topology):
        """Replication ``r`` is a direct run on the ``r``-th spawned
        stream."""
        matrix = uniform_matrix(4)
        replicated = simulate_team_repeatedly(
            topology, [matrix], horizon=3_000.0, repetitions=2, seed=5
        )
        for result, rng in zip(replicated, spawn_generators(5, 2)):
            direct = simulate_team(topology, [matrix], 3_000.0, seed=rng)
            np.testing.assert_array_equal(
                result.coverage_shares, direct.coverage_shares
            )

    def test_rejects_bad_repetitions(self, topology):
        with pytest.raises(ValueError, match="repetitions"):
            simulate_team_repeatedly(
                topology, [uniform_matrix(4)], horizon=100.0,
                repetitions=0,
            )


class TestCoverageApproximation:
    def test_matches_simulation(self, team_run):
        approx = team_coverage_approximation(team_run.per_sensor_shares)
        np.testing.assert_allclose(
            approx, team_run.coverage_shares, rtol=0.05
        )

    def test_single_sensor_identity(self):
        shares = np.array([0.2, 0.5])
        np.testing.assert_allclose(
            team_coverage_approximation(shares), shares
        )

    def test_two_sensor_closed_form(self):
        approx = team_coverage_approximation(
            np.array([[0.5, 0.2], [0.5, 0.2]])
        )
        np.testing.assert_allclose(approx, [0.75, 0.36])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="shares"):
            team_coverage_approximation(np.array([1.5]))


class TestExposureApproximation:
    def test_matches_simulation_within_band(self, topology):
        matrix = uniform_matrix(4)
        solo = simulate_team(
            topology, [matrix], horizon=120_000.0, seed=5
        )
        trio = simulate_team(
            topology, [matrix] * 3, horizon=120_000.0, seed=6
        )
        approx = team_exposure_approximation(
            np.tile(solo.exposure_mean, (3, 1))
        )
        ratio = trio.exposure_mean / approx
        assert np.all(ratio > 0.5) and np.all(ratio < 2.0)

    def test_homogeneous_closed_form(self):
        approx = team_exposure_approximation(
            np.array([[6.0, 9.0], [6.0, 9.0], [6.0, 9.0]])
        )
        np.testing.assert_allclose(approx, [2.0, 3.0])

    def test_infinite_sensor_drops_out(self):
        approx = team_exposure_approximation(
            np.array([[4.0], [np.inf]])
        )
        np.testing.assert_allclose(approx, [4.0])

    def test_all_infinite_gives_infinite(self):
        approx = team_exposure_approximation(np.array([[np.inf]]))
        assert np.isinf(approx[0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="> 0"):
            team_exposure_approximation(np.array([[0.0]]))


class TestTeamSizing:
    def test_monotone_in_target(self):
        low = sensors_needed_for_coverage(0.3, 0.5)
        high = sensors_needed_for_coverage(0.3, 0.99)
        assert high > low

    def test_exact_boundary(self):
        # 1 - (1 - 0.5)^2 = 0.75 exactly.
        assert sensors_needed_for_coverage(0.5, 0.75) == 2

    def test_single_sensor_enough(self):
        assert sensors_needed_for_coverage(0.9, 0.5) == 1

    @pytest.mark.parametrize("single,target", [
        (0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0),
    ])
    def test_rejects_degenerate(self, single, target):
        with pytest.raises(ValueError):
            sensors_needed_for_coverage(single, target)

    def test_formula_satisfied(self):
        for single in (0.1, 0.33, 0.7):
            for target in (0.5, 0.9, 0.999):
                k = sensors_needed_for_coverage(single, target)
                assert 1 - (1 - single) ** k >= target - 1e-12
                if k > 1:
                    assert 1 - (1 - single) ** (k - 1) < target
