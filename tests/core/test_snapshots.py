"""Optimizer state-machine snapshots: kill/resume bit-identity.

The service's job checkpoints (:mod:`repro.service`) serialize a
:class:`~repro.core.perturbed.PerturbedWalk` — the one descent walk
behind the basic, adaptive and perturbed methods — at an iteration
boundary
and later restore it — possibly in another process — so the contract
here is strict: a walk resumed from a JSON round-tripped snapshot must
finish with a trajectory *bit-identical* to the uninterrupted run.
"""

import json

import numpy as np
import pytest

from repro.core.api import optimize
from repro.core.cost import CostWeights, CoverageCost
from repro.core.linesearch import TrisectionState, trisection_search
from repro.core.perturbed import (
    WALK_SNAPSHOT_SCHEMA,
    AdaptiveOptions,
    BasicDescentOptions,
    PerturbedOptions,
    PerturbedWalk,
    advance_walk,
)
from repro.topology.library import paper_topology, scalable_topology
from repro.utils.rng import (
    as_generator,
    generator_from_state,
    generator_state,
)


@pytest.fixture(scope="module")
def cost():
    topology = paper_topology(1)
    return CoverageCost(topology, CostWeights(alpha=1.0, beta=1.0))


OPTIONS = PerturbedOptions(
    max_iterations=24, stall_limit=100, trisection_rounds=8,
    geometric_decades=6,
)

#: Per-method options for the resume tests: every run outlives the kill.
METHOD_OPTIONS = {
    "basic": BasicDescentOptions(
        max_iterations=24, step_size=1e-4, patience=100
    ),
    "adaptive": AdaptiveOptions(
        max_iterations=24, trisection_rounds=8, geometric_decades=6
    ),
    "perturbed": OPTIONS,
}

#: (method, kill_after, family) triples; perturbed, the default method,
#: keeps bare ``kill_after`` ids on the paper topology (``family`` is
#: ``None``).  The sparse cases run on an M = 64 ``linalg="sparse"``
#: cost of ``family``, killed where a restore that did not reuse the
#: carried state would leave the trajectory: city-grid at 2 and 3,
#: ring-of-grids at 21, where the carried ``pi`` (iteratively refined
#: by the line search) differs from a scratch solve in the last bits.
RESUME_CASES = [
    pytest.param(method, kill_after, None,
                 id=f"{kill_after}" if method == "perturbed"
                 else f"{method}-{kill_after}")
    for method in ("perturbed", "basic", "adaptive")
    for kill_after in (0, 1, 9)
] + [
    pytest.param("perturbed", kill_after, "city-grid",
                 id=f"sparse-{kill_after}")
    for kill_after in (2, 3)
] + [
    pytest.param("perturbed", 21, "ring-of-grids", id="sparse-ring-21"),
]


def _sparse_cost(family):
    return CoverageCost(
        scalable_topology(family, 64),
        CostWeights(alpha=1.0, beta=1.0), linalg="sparse",
    )


class TestGeneratorState:
    def test_round_trip_continues_stream(self):
        rng = as_generator(123)
        rng.normal(size=7)  # advance the stream
        resumed = generator_from_state(generator_state(rng))
        assert np.array_equal(rng.normal(size=16),
                              resumed.normal(size=16))

    def test_snapshot_is_json_plain(self):
        state = generator_state(as_generator(5))
        assert state == json.loads(json.dumps(state))

    def test_unknown_bit_generator_rejected(self):
        with pytest.raises(ValueError, match="bit generator"):
            generator_from_state({"bit_generator": "NoSuchBG"})


class TestWalkSnapshot:
    def _run_interrupted(self, cost, kill_after, options, resume_cost):
        """Run to ``kill_after`` iterations, snapshot, JSON round-trip,
        restore into ``resume_cost``, finish."""
        walk = PerturbedWalk(cost, None, as_generator(7), options)
        while walk.iteration < kill_after and advance_walk(
            cost, walk, options
        ):
            pass
        assert not walk.finished
        snapshot = json.loads(json.dumps(walk.snapshot()))
        resumed = PerturbedWalk.restore(resume_cost, snapshot, options)
        while advance_walk(resume_cost, resumed, options):
            pass
        return resumed.result()

    @pytest.mark.parametrize("method,kill_after,family", RESUME_CASES)
    def test_resume_bit_identical(self, cost, method, kill_after, family):
        resume_cost = cost
        if family is not None:
            # A fresh cost for the resumed half, as a service worker
            # restoring a job checkpoint would build.
            cost, resume_cost = _sparse_cost(family), _sparse_cost(family)
        options = METHOD_OPTIONS[method]
        seed = {} if method == "basic" else {"seed": 7}
        uninterrupted = optimize(
            cost, method=method, options=options, **seed
        )
        resumed = self._run_interrupted(
            cost, kill_after, options, resume_cost
        )
        assert resumed.u_eps == uninterrupted.u_eps
        assert resumed.matrix.tobytes() == uninterrupted.matrix.tobytes()
        assert resumed.best_u_eps == uninterrupted.best_u_eps
        assert resumed.best_matrix.tobytes() == \
            uninterrupted.best_matrix.tobytes()
        assert resumed.iterations == uninterrupted.iterations
        assert resumed.stop_reason == uninterrupted.stop_reason
        assert resumed.history == uninterrupted.history

    def test_snapshot_schema_and_json_plain(self, cost):
        walk = PerturbedWalk(cost, None, as_generator(3), OPTIONS)
        advance_walk(cost, walk, OPTIONS)
        snapshot = walk.snapshot()
        assert snapshot["schema"] == WALK_SNAPSHOT_SCHEMA
        assert snapshot == json.loads(json.dumps(snapshot))
        assert snapshot["iteration"] == 1

    def test_restore_rejects_wrong_schema(self, cost):
        with pytest.raises(ValueError, match="schema"):
            PerturbedWalk.restore(cost, {"schema": "bogus"}, OPTIONS)

    def test_finished_walk_stays_finished(self, cost):
        walk = PerturbedWalk(
            cost, None, as_generator(1),
            PerturbedOptions(max_iterations=2, stall_limit=100,
                             trisection_rounds=4, geometric_decades=4),
        )
        options = walk.options
        while advance_walk(cost, walk, options):
            pass
        restored = PerturbedWalk.restore(cost, walk.snapshot(), options)
        assert restored.finished
        assert restored.begin_iteration() is None


class TestTrisectionSnapshot:
    def _objective(self):
        return lambda steps: (np.asarray(steps) - 0.3) ** 2 + 1.0

    def test_mid_search_resume_identical(self):
        objective = self._objective()
        plain = trisection_search(
            batch_objective=objective, upper=1.0, baseline=1.2,
            rounds=12,
        )

        search = TrisectionState(upper=1.0, baseline=1.2, rounds=12)
        search.observe_sweep(objective(search.sweep_steps()))
        for _ in range(4):  # part of the refinement, then "die"
            pair = search.round_steps()
            v1, v2 = objective(pair)
            search.observe_round(v1, v2)
        snapshot = json.loads(json.dumps(search.snapshot()))

        resumed = TrisectionState.restore(snapshot)
        while True:
            pair = resumed.round_steps()
            if pair is None:
                break
            v1, v2 = objective(pair)
            resumed.observe_round(v1, v2)
        outcome = resumed.result()
        assert outcome.step == plain.step
        assert outcome.value == plain.value

    def test_pre_sweep_snapshot_keeps_pending_probes(self):
        search = TrisectionState(upper=2.0, baseline=5.0, rounds=3)
        probes = search.sweep_steps()
        restored = TrisectionState.restore(
            json.loads(json.dumps(search.snapshot()))
        )
        assert np.array_equal(restored._probes, probes)
        objective = self._objective()
        restored.observe_sweep(objective(restored._probes))
        assert restored.best_step > 0.0

    def test_finished_search_round_trips(self):
        search = TrisectionState(upper=0.0, baseline=1.0)
        restored = TrisectionState.restore(search.snapshot())
        assert restored.finished
        assert restored.result() == search.result()
