"""The oracle matrix: every public simulation path against its oracle.

The single-sensor engine (:func:`repro.simulate_schedule`), the team
engine (:func:`repro.multisensor.simulate_team`) and the event-capture
measurement (:func:`repro.simulation.capture.simulate_event_capture`)
each consume the RNG stream exactly like their per-step references in
``tests/oracles/simulation.py`` and compute every metric with the same
floating-point operations.  Whole result objects must therefore match
**bit for bit**: every field is compared with ``np.array_equal``, NaN
positions included, with no tolerance.

The explicit cases pin paper topologies 1-4, warmup settings, start
states, team sizes, explicit starts, a horizon inside the first
transition and self-loop-heavy matrices; the hypothesis cases draw
instances on the ``city-grid`` and ``ring-of-grids`` families.
"""

from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimulationOptions, paper_topology, simulate_schedule
from repro import uniform_matrix
from repro.multisensor import check_team_result, simulate_team
from repro.simulation.capture import simulate_event_capture
from repro.topology.library import scalable_topology
from repro.topology.random_gen import random_topology
from tests.oracles import simulation as oracle


def _assert_identical(public, reference):
    assert type(public) is type(reference)
    for field in fields(reference):
        expected = getattr(reference, field.name)
        actual = getattr(public, field.name)
        if expected is None:
            assert actual is None, field.name
            continue
        expected = np.asarray(expected)
        actual = np.asarray(actual)
        assert actual.dtype == expected.dtype, field.name
        assert actual.shape == expected.shape, field.name
        assert np.array_equal(
            actual, expected, equal_nan=expected.dtype.kind == "f"
        ), f"{field.name}: {actual} != {expected}"


def _check_single(topology, matrix, transitions, seed, **options):
    public = simulate_schedule(
        topology, matrix, transitions, seed=seed,
        options=SimulationOptions(**options),
    )
    _assert_identical(
        public,
        oracle.simulate_schedule(
            topology, matrix, transitions, seed=seed, **options
        ),
    )
    return public


def _check_team(topology, matrices, horizon, seed, starts=None):
    public = simulate_team(
        topology, matrices, horizon, seed=seed, starts=starts
    )
    _assert_identical(
        public,
        oracle.simulate_team(
            topology, matrices, horizon, seed=seed, starts=starts
        ),
    )
    check_team_result(public)
    return public


def _check_capture(topology, matrix, horizon, rates, lifetime, seed):
    public = simulate_event_capture(
        topology, matrix, horizon, rates, lifetime, seed=seed
    )
    _assert_identical(
        public,
        oracle.simulate_event_capture(
            topology, matrix, horizon, rates, lifetime, seed=seed
        ),
    )
    return public


def _random_matrix(size, rng, self_loop_boost=0.0, support=None):
    raw = rng.random((size, size)) + self_loop_boost * np.eye(size)
    if support is not None:
        raw = raw * support
    return raw / raw.sum(axis=1, keepdims=True)


# ------------------------------------------------------------------ #
# Single sensor
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("topology_id", [1, 2, 3, 4])
def test_paper_topologies_bit_identical(topology_id):
    topology = paper_topology(topology_id)
    rng = np.random.default_rng(topology_id)
    matrix = _random_matrix(topology.size, rng)
    _check_single(
        topology, matrix, transitions=400, seed=17 + topology_id,
        warmup=25, record_path=True,
    )


@pytest.mark.parametrize("warmup", [0, 1, 500])
def test_warmup_settings(warmup):
    topology = paper_topology(2)
    matrix = _random_matrix(topology.size, np.random.default_rng(5))
    _check_single(
        topology, matrix, transitions=300, seed=warmup, warmup=warmup,
        record_path=True,
    )


@pytest.mark.parametrize("start_state", [None, 0, 3])
def test_start_state_selection(start_state):
    topology = paper_topology(1)
    matrix = _random_matrix(topology.size, np.random.default_rng(8))
    result = _check_single(
        topology, matrix, transitions=200, seed=3,
        start_state=start_state, record_path=True,
    )
    if start_state is not None:
        assert result.start_state == start_state


def test_record_path_off_returns_no_path():
    topology = paper_topology(3)
    matrix = _random_matrix(topology.size, np.random.default_rng(1))
    result = _check_single(
        topology, matrix, transitions=150, seed=9, record_path=False
    )
    assert result.path is None


def test_self_loop_heavy_matrix():
    """Mostly-dwelling sensors exercise the dwell-interval branch."""
    topology = random_topology(10, seed=2)
    rng = np.random.default_rng(4)
    matrix = _random_matrix(topology.size, rng, self_loop_boost=15.0)
    _check_single(
        topology, matrix, transitions=2_000, seed=21, warmup=50,
        record_path=True,
    )


def test_random_topologies_property_sweep():
    """Randomized sizes/matrices/seeds, all bit-identical."""
    rng = np.random.default_rng(123)
    for _ in range(6):
        size = int(rng.integers(3, 14))
        topology = random_topology(size, seed=int(rng.integers(1000)))
        matrix = _random_matrix(
            topology.size, rng,
            self_loop_boost=float(rng.uniform(0.0, 5.0)),
        )
        _check_single(
            topology, matrix,
            transitions=int(rng.integers(50, 800)),
            seed=int(rng.integers(10_000)),
            warmup=int(rng.integers(0, 100)),
            record_path=True,
        )


def test_uniform_matrix_long_warmup():
    """The reproduction-check case: a uniform schedule on Topology 2."""
    topology = paper_topology(2)
    matrix = uniform_matrix(topology.size)
    _check_single(
        topology, matrix, transitions=2_000, seed=0, warmup=100,
        record_path=True,
    )


# ------------------------------------------------------------------ #
# Team
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("topology_id", [1, 2, 3, 4])
def test_team_paper_topologies_bit_identical(topology_id):
    topology = paper_topology(topology_id)
    rng = np.random.default_rng(topology_id)
    matrices = [_random_matrix(topology.size, rng) for _ in range(3)]
    _check_team(
        topology, matrices, horizon=20_000.0, seed=31 + topology_id
    )


@pytest.mark.parametrize("team_size", [1, 2, 4, 7])
def test_team_sizes(team_size):
    topology = paper_topology(2)
    matrix = _random_matrix(topology.size, np.random.default_rng(6))
    _check_team(
        topology, [matrix] * team_size, horizon=15_000.0, seed=team_size
    )


def test_team_explicit_starts():
    topology = paper_topology(1)
    matrix = uniform_matrix(topology.size)
    _check_team(
        topology, [matrix] * 3, horizon=8_000.0, seed=4, starts=[0, 2, 3]
    )


def test_team_short_horizon_first_transition_clipped():
    """A horizon inside the very first transition exercises clipping."""
    topology = paper_topology(3)
    matrix = _random_matrix(topology.size, np.random.default_rng(2))
    result = _check_team(topology, [matrix] * 2, horizon=3.0, seed=11)
    assert np.all(result.transitions == 1)


def test_team_self_loop_heavy():
    """Mostly-dwelling sensors make the horizon sampler over-draw in
    several chunks (many short pause-only transitions)."""
    topology = random_topology(8, seed=3)
    rng = np.random.default_rng(7)
    matrices = [
        _random_matrix(topology.size, rng, self_loop_boost=20.0)
        for _ in range(3)
    ]
    _check_team(topology, matrices, horizon=30_000.0, seed=13)


def test_team_heterogeneous_random_sweep():
    """Randomized sizes/teams/horizons/starts, all bit-identical."""
    rng = np.random.default_rng(321)
    for trial in range(5):
        size = int(rng.integers(3, 12))
        topology = random_topology(size, seed=int(rng.integers(1000)))
        team = int(rng.integers(1, 6))
        matrices = [
            _random_matrix(
                size, rng, self_loop_boost=float(rng.uniform(0.0, 6.0))
            )
            for _ in range(team)
        ]
        starts = (
            None if trial % 2 == 0
            else [int(s) for s in rng.integers(0, size, team)]
        )
        _check_team(
            topology, matrices,
            horizon=float(rng.uniform(20.0, 25_000.0)),
            seed=int(rng.integers(10_000)),
            starts=starts,
        )


# ------------------------------------------------------------------ #
# Event capture
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("topology_id", [1, 2, 3, 4])
def test_capture_paper_topologies_bit_identical(topology_id):
    topology = paper_topology(topology_id)
    rng = np.random.default_rng(40 + topology_id)
    matrix = _random_matrix(topology.size, rng)
    # One silent PoI exercises the zero-rate branch.
    rates = np.full(topology.size, 0.004)
    rates[0] = 0.0
    _check_capture(
        topology, matrix, horizon=30_000.0, rates=rates, lifetime=25.0,
        seed=topology_id,
    )


def test_capture_short_horizon_first_transition_clipped():
    topology = paper_topology(3)
    matrix = _random_matrix(topology.size, np.random.default_rng(2))
    _check_capture(
        topology, matrix, horizon=3.0, rates=0.5, lifetime=1.0, seed=11
    )


def test_capture_self_loop_heavy():
    topology = random_topology(8, seed=3)
    matrix = _random_matrix(
        topology.size, np.random.default_rng(9), self_loop_boost=20.0
    )
    _check_capture(
        topology, matrix, horizon=20_000.0, rates=0.01, lifetime=40.0,
        seed=5,
    )


# ------------------------------------------------------------------ #
# Scalable families (hypothesis)
# ------------------------------------------------------------------ #

#: (family, size) pairs small enough for the per-step oracles.
SCALABLE = (
    ("city-grid", 6), ("city-grid", 12), ("city-grid", 25),
    ("ring-of-grids", 32),
)


@lru_cache(maxsize=None)
def _scalable(family, size):
    return scalable_topology(family, size)


def _support_matrix(topology, seed, boost):
    """A random matrix on the family's adjacency (self-loops included)."""
    return _random_matrix(
        topology.size, np.random.default_rng(seed), boost,
        support=topology.adjacency,
    )


SCALABLE_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
instances = st.sampled_from(SCALABLE)
seeds = st.integers(0, 2**16)
boosts = st.floats(0.0, 10.0)


@SCALABLE_SETTINGS
@given(
    instance=instances, seed=seeds, boost=boosts,
    transitions=st.integers(1, 600), warmup=st.integers(0, 50),
    start=st.one_of(st.none(), st.integers(0, 5)),
)
def test_scalable_single(instance, seed, boost, transitions, warmup, start):
    topology = _scalable(*instance)
    _check_single(
        topology, _support_matrix(topology, seed, boost), transitions,
        seed=seed, warmup=warmup, start_state=start, record_path=True,
    )


@SCALABLE_SETTINGS
@given(
    instance=instances, seed=seeds, boost=boosts,
    sensors=st.integers(1, 4), horizon=st.floats(1.0, 20_000.0),
    explicit_starts=st.booleans(),
)
def test_scalable_team(instance, seed, boost, sensors, horizon,
                       explicit_starts):
    topology = _scalable(*instance)
    matrices = [
        _support_matrix(topology, seed + k, boost) for k in range(sensors)
    ]
    starts = None
    if explicit_starts:
        starts = [(seed + 7 * k) % topology.size for k in range(sensors)]
    _check_team(topology, matrices, horizon, seed=seed, starts=starts)


@SCALABLE_SETTINGS
@given(
    instance=instances, seed=seeds, boost=boosts,
    horizon=st.floats(1.0, 20_000.0), rate=st.floats(0.0, 0.02),
    lifetime=st.floats(0.0, 200.0),
)
def test_scalable_capture(instance, seed, boost, horizon, rate, lifetime):
    topology = _scalable(*instance)
    _check_capture(
        topology, _support_matrix(topology, seed, boost), horizon, rate,
        lifetime, seed=seed,
    )
