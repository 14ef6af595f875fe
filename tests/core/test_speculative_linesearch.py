"""Speculative trisection == one round per call, bit for bit.

A ray on a small dense chain evaluates the probes of its next
``rounds_per_call`` trisection rounds in one ``batch_evaluate`` call
(:func:`~repro.core.cost.speculative_rounds`) and its search replays
the rounds on those values
(:meth:`~repro.core.linesearch.TrisectionState.observe_speculative`).
The one-round-per-call driver in ``tests/oracles/linesearch.py`` is the
reference.  On generated rays over the paper topologies 1-4 and dense
city grids of 9, 16 and 36 PoIs — probes that read ``inf``, searches
that end on the bracket floor or run out of rounds partway through a
speculative call, and searches with no improving step — both return
the same :class:`~repro.core.linesearch.LineSearchResult` (evaluations
included), and their rays hand back the same winner bytes.  A seeded
walk's whole trajectory equals the oracle walk's, perf counters aside
from the batch counts.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CostWeights, CoverageCost, paper_topology
from repro.core.cost import speculative_rounds
from repro.core.initializers import paper_random_matrix
from repro.core.linesearch import TrisectionState, trisection_search
from repro.core.perturbed import PerturbedOptions, optimize_perturbed
from repro.topology.library import scalable_topology
from repro.utils import perf
from tests.oracles import linesearch as oracle

KINDS = ("paper-1", "paper-2", "paper-3", "paper-4",
         "city-9", "city-16", "city-36")


@functools.lru_cache(maxsize=None)
def _cost(kind: str) -> CoverageCost:
    family, size = kind.split("-")
    if family == "paper":
        return CoverageCost(
            paper_topology(int(size)), CostWeights(alpha=1.0, beta=1.0)
        )
    return CoverageCost(
        scalable_topology("city-grid", int(size)),
        CostWeights(alpha=1.0, beta=1.0), linalg="dense",
    )


def _ray(cost, seed, uphill):
    """A ray from a seeded random chain along its (or the reversed)
    descent direction."""
    state = cost.build_state(
        paper_random_matrix(cost.size, seed=seed, support=cost.support)
    )
    direction = cost.descent_direction(state)
    if uphill:
        direction = -direction
    return state, direction, cost.value(state)


def _search(search_fn, cost, state, direction, **kwargs):
    ray = cost.ray_batch(state, direction)
    with perf.perf_scope() as counters:
        result = search_fn(batch_objective=ray, **kwargs)
    return result, ray, counters.batch_calls


def _winner_bytes(cost, ray, step):
    state = ray.state_at(step)
    if state is None:
        return None
    return (state.p.tobytes(), state.pi.tobytes(), state.z.tobytes())


def _assert_same_search(cost, state, direction, **kwargs):
    expected, oracle_ray, oracle_calls = _search(
        oracle.trisection_search, cost, state, direction, **kwargs
    )
    actual, ray, calls = _search(
        trisection_search, cost, state, direction, **kwargs
    )
    assert actual == expected
    assert _winner_bytes(cost, ray, actual.step) == _winner_bytes(
        cost, oracle_ray, expected.step
    )
    assert calls <= oracle_calls
    return actual


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1.0, 3.0, 0.5, None]),
    tiny=st.floats(1.2e-14, 1e-13),
    rounds=st.integers(1, 70),
    decades=st.integers(0, 12),
    uphill=st.booleans(),
    lowered=st.booleans(),
)
def test_speculative_search_is_the_one_round_search(
    kind, seed, scale, tiny, rounds, decades, uphill, lowered
):
    # scale 3: probes past the feasible bound read inf; no scale: a
    # tiny upper whose bracket reaches the floor within a few rounds;
    # uphill or a lowered baseline: no improving step.
    cost = _cost(kind)
    state, direction, value = _ray(cost, seed, uphill)
    bound = cost.ray_batch(state, direction).step_bound()
    _assert_same_search(
        cost, state, direction,
        upper=tiny if scale is None else bound * scale,
        baseline=value - (1.0 + abs(value)) if lowered else value,
        rounds=rounds, geometric_decades=decades,
    )


@pytest.mark.parametrize("kind", KINDS)
def test_depth_rule(kind):
    cost = _cost(kind)
    expected = 3 if cost.size <= 16 else 2
    assert speculative_rounds(cost.size, "dense") == expected
    assert cost.ray_batch(*_ray(cost, 1, False)[:2]).rounds_per_call == (
        expected
    )
    assert speculative_rounds(cost.size, "sparse") == 1


@pytest.mark.parametrize(
    "upper, rounds, case",
    [
        (2e-14, 70, "floor"),   # ends on the floor after 8 rounds
        (None, 7, "budget"),    # 7 rounds: the last call is cut short
        (3.0, 20, "inf"),       # the sweep's top probes read inf
    ],
)
def test_named_edge_cases_occur(upper, rounds, case):
    cost = _cost("paper-1")
    state, direction, value = _ray(cost, 11, False)
    bound = cost.ray_batch(state, direction).step_bound()
    if case != "floor":
        upper = bound * (upper or 1.0)
    result = _assert_same_search(
        cost, state, direction, upper=upper, baseline=value,
        rounds=rounds, geometric_decades=12,
    )
    rounds_run = (result.evaluations - 13) // 2
    if case == "floor":
        assert rounds_run < rounds and rounds_run % 3 != 0
    elif case == "budget":
        assert rounds_run == rounds
    else:
        ray = cost.ray_batch(state, direction)
        assert np.isinf(ray(np.array([upper]))[0])


def test_no_improvement_returns_zero_step():
    cost = _cost("paper-2")
    state, direction, value = _ray(cost, 5, True)
    upper = cost.ray_batch(state, direction).step_bound()
    result = _assert_same_search(
        cost, state, direction, upper=upper, baseline=value - 1.0,
        rounds=20, geometric_decades=12,
    )
    assert result.step == 0.0 and result.value == value - 1.0


def test_replay_matches_round_by_round_state():
    # Replaying a speculative call leaves the state machine exactly
    # where round-by-round observation leaves it.
    rng = np.random.default_rng(3)
    table = {}

    def value(step):
        return table.setdefault(float(step), float(rng.normal()))

    plain = TrisectionState(upper=1.0, baseline=0.5, rounds=10)
    speculative = TrisectionState(upper=1.0, baseline=0.5, rounds=10)
    for search in (plain, speculative):
        probes = search.sweep_steps()
        search.observe_sweep(np.array([value(s) for s in probes]))
    while (pair := plain.round_steps()) is not None:
        plain.observe_round(value(pair[0]), value(pair[1]))
    while (steps := speculative.speculative_steps(4)) is not None:
        assert steps.size <= 2**5 - 2
        used = speculative.observe_speculative(
            np.array([value(s) for s in steps])
        )
        assert used.size % 2 == 0
    assert speculative.snapshot() == plain.snapshot()
    assert speculative.result() == plain.result()


@pytest.mark.parametrize("kind", ["paper-1", "city-16"])
def test_walk_equals_the_oracle_walk(kind):
    cost = _cost(kind)
    options = PerturbedOptions(
        max_iterations=10, stall_limit=100, trisection_rounds=20,
        checkpoint_every=3,
    )
    expected = oracle.optimize_perturbed(cost, seed=7, options=options)
    actual = optimize_perturbed(cost, seed=7, options=options)
    assert actual.history == expected.history
    assert actual.best_matrix.tobytes() == expected.best_matrix.tobytes()
    assert actual.matrix.tobytes() == expected.matrix.tobytes()
    assert [(i, m.tobytes()) for i, m in actual.checkpoints] == [
        (i, m.tobytes()) for i, m in expected.checkpoints
    ]
    for name in ("factorizations", "state_builds", "states_reused",
                 "accepted_steps", "accept_factorizations"):
        assert getattr(actual.perf, name) == getattr(expected.perf, name)
    assert actual.perf.batch_calls < expected.perf.batch_calls
