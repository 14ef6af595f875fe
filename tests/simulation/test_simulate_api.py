"""The ``repro.simulate`` façade: routing, options coercion, snapshot.

Mirrors ``tests/core/test_api.py``: for every registered kind and every
execution backend, ``simulate(..., kind=k)`` must be
*bit-identical* to calling the kind's function directly with the same
arguments; the registry surface and the error contract are pinned the
same way.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    SIMULATOR_REGISTRY,
    SimulationOptions,
    SimulatorSpec,
    TeamOptions,
    simulate,
    simulate_schedule,
)
from repro.experiments.runner import simulate_repeatedly
from repro.multisensor import simulate_team, simulate_team_repeatedly


@pytest.fixture(scope="module")
def topology():
    return repro.paper_topology(1)


@pytest.fixture(scope="module")
def matrix(topology):
    return repro.metropolis_hastings_matrix(topology.target_shares)


def _same_simulation(a, b):
    assert a.transitions == b.transitions
    assert a.total_time == b.total_time
    assert a.coverage_shares.tobytes() == b.coverage_shares.tobytes()
    assert a.delta_c == b.delta_c
    assert a.e_bar_transitions == b.e_bar_transitions
    assert a.exposure_physical.tobytes() == b.exposure_physical.tobytes()
    assert a.start_state == b.start_state
    assert a.end_state == b.end_state


def _same_team(a, b):
    assert a.sensors == b.sensors
    assert a.horizon == b.horizon
    assert a.coverage_shares.tobytes() == b.coverage_shares.tobytes()
    assert a.per_sensor_shares.tobytes() == b.per_sensor_shares.tobytes()
    assert np.array_equal(a.exposure_mean, b.exposure_mean,
                          equal_nan=True)
    assert np.array_equal(a.transitions, b.transitions)


class TestSingleEquivalence:
    def test_options_bit_identical(self, topology, matrix):
        direct = simulate_schedule(
            topology, matrix, transitions=400, seed=5,
            options=SimulationOptions(warmup=20),
        )
        routed = simulate(
            topology, matrix, kind="single", transitions=400, seed=5,
            options={"warmup": 20},
        )
        _same_simulation(direct, routed)

    def test_default_kind_is_single(self, topology, matrix):
        direct = simulate_schedule(topology, matrix, transitions=200,
                                   seed=9)
        routed = simulate(topology, matrix, transitions=200, seed=9)
        _same_simulation(direct, routed)

    @pytest.mark.parametrize("execution", [None, "serial", "thread"])
    def test_repetitions_match_driver(self, topology, matrix, execution):
        direct = simulate_repeatedly(
            topology, matrix, 300, repetitions=3, seed=4,
            executor=execution,
        )
        routed = simulate(
            topology, matrix, transitions=300, repetitions=3, seed=4,
            execution=execution,
        )
        assert len(routed) == 3
        for one, other in zip(direct, routed):
            _same_simulation(one, other)

    def test_repetitions_with_explicit_warmup(self, topology, matrix):
        direct = simulate_repeatedly(
            topology, matrix, 300, repetitions=2, seed=4, warmup=10,
        )
        routed = simulate(
            topology, matrix, transitions=300, repetitions=2, seed=4,
            options={"warmup": 10},
        )
        for one, other in zip(direct, routed):
            _same_simulation(one, other)


class TestTeamEquivalence:
    def test_replicated_matrix_bit_identical(self, topology, matrix):
        direct = simulate_team(
            topology, [matrix, matrix], horizon=800.0, seed=5
        )
        routed = simulate(
            topology, matrix, kind="team", sensors=2, horizon=800.0,
            seed=5,
        )
        _same_team(direct, routed)

    def test_matrix_sequence_and_starts(self, topology, matrix):
        other = repro.uniform_policy_matrix(topology.size)
        direct = simulate_team(
            topology, [matrix, other], horizon=500.0, seed=3,
            starts=(0, 2),
        )
        routed = simulate(
            topology, [matrix, other], kind="team", horizon=500.0,
            seed=3, options=TeamOptions(starts=(0, 2)),
        )
        _same_team(direct, routed)

    @pytest.mark.parametrize("execution", [None, "serial", "thread"])
    def test_repetitions_match_driver(self, topology, matrix, execution):
        direct = simulate_team_repeatedly(
            topology, [matrix], 400.0, repetitions=3, seed=6,
            executor=execution,
        )
        routed = simulate(
            topology, matrix, kind="team", horizon=400.0,
            repetitions=3, seed=6, execution=execution,
        )
        assert len(routed) == 3
        for one, other in zip(direct, routed):
            _same_team(one, other)


class TestFacadeErrors:
    def test_unknown_kind_lists_registry(self, topology, matrix):
        with pytest.raises(ValueError, match="team"):
            simulate(topology, matrix, kind="swarm", transitions=10)

    def test_missing_required_argument(self, topology, matrix):
        with pytest.raises(ValueError, match="transitions"):
            simulate(topology, matrix, kind="single")
        with pytest.raises(ValueError, match="horizon"):
            simulate(topology, matrix, kind="team")

    def test_wrong_duration_axis_rejected(self, topology, matrix):
        with pytest.raises(ValueError, match="horizon"):
            simulate(topology, matrix, kind="single", transitions=10,
                     horizon=5.0)
        with pytest.raises(ValueError, match="transitions"):
            simulate(topology, matrix, kind="team", horizon=5.0,
                     transitions=10)

    def test_unknown_keyword_named(self, topology, matrix):
        with pytest.raises(ValueError, match="frobnicate"):
            simulate(topology, matrix, transitions=10, frobnicate=2)

    def test_sensors_rejected_for_single(self, topology, matrix):
        with pytest.raises(ValueError, match="sensors"):
            simulate(topology, matrix, transitions=10, sensors=3)

    def test_unknown_option_key_named(self, topology, matrix):
        with pytest.raises(ValueError, match="bogus"):
            simulate(topology, matrix, transitions=10,
                     options={"bogus": 1})

    def test_execution_requires_repetitions(self, topology, matrix):
        with pytest.raises(ValueError, match="repetitions"):
            simulate(topology, matrix, transitions=10,
                     execution="thread")

    def test_engine_keyword_unknown(self, topology, matrix):
        """There is one simulator per kind; ``engine=`` names nothing."""
        with pytest.raises(ValueError, match="engine"):
            simulate(topology, matrix, transitions=10, engine="warp")

    def test_sensor_count_conflict(self, topology, matrix):
        with pytest.raises(ValueError, match="sensors"):
            simulate(topology, [matrix, matrix], kind="team",
                     horizon=10.0, sensors=3)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -np.inf, 0.0])
    def test_team_horizon_must_be_positive_and_finite(
        self, topology, matrix, horizon
    ):
        with pytest.raises(ValueError, match="horizon must be"):
            simulate(topology, matrix, kind="team", horizon=horizon)

    @pytest.mark.parametrize(
        "kind, duration",
        [("single", {"transitions": 10}), ("team", {"horizon": 10.0})],
    )
    def test_zero_repetitions_rejected(self, topology, matrix, kind,
                                       duration):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            simulate(topology, matrix, kind=kind, repetitions=0,
                     **duration)


class TestRegistry:
    def test_registry_snapshot(self):
        assert list(SIMULATOR_REGISTRY) == ["single", "team"]

    def test_specs_are_complete(self):
        for name, spec in SIMULATOR_REGISTRY.items():
            assert isinstance(spec, SimulatorSpec)
            assert spec.name == name
            assert callable(spec.func)
            assert callable(spec.repeat_func)
            assert spec.required in ("transitions", "horizon")
            assert spec.summary

    def test_direct_entry_points_still_importable(self):
        from repro.multisensor.engine import simulate_team  # noqa: F401
        from repro.simulation.engine import (  # noqa: F401
            simulate_schedule,
        )


class TestPublicApiSnapshot:
    def test_facade_names_exported(self):
        for name in (
            "simulate", "SIMULATOR_REGISTRY", "SimulatorSpec",
            "TeamOptions", "SimulationOptions",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)
