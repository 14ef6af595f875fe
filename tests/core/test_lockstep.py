"""Lockstep multi-start: fused == per-ray == per-start, bit for bit.

Three layers of equivalence, each pinned exactly (``==`` on floats and
raw matrix bytes, not ``allclose``):

* :class:`~repro.core.cost.MultiRayBatch` — fusing several rays' probes
  into one stacked ``batch_evaluate`` returns the same values and
  records the same per-ray winners as evaluating each ray alone;
* :class:`~repro.core.linesearch.TrisectionState` — the state machine
  the in-process multi-start advances stage by stage reproduces
  :func:`~repro.core.linesearch.trisection_search` exactly;
* :func:`~repro.core.multistart.optimize_multistart` — every start's
  full trajectory (history, matrices, checkpoints, perf accounting)
  equals the start-by-start reference loop's
  (:func:`tests.oracles.multistart.optimize_multistart`), dense and
  sparse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CostWeights, CoverageCost, PerturbedOptions
from repro.core.cost import MultiRayBatch, RayBatch
from repro.core.linesearch import (
    TrisectionState,
    feasible_step_bound,
    trisection_search,
)
from repro.core.multistart import optimize_multistart
from repro.utils import perf
from repro.core.initializers import dirichlet_matrix
from repro.topology.library import scalable_topology

from tests.conftest import random_zero_rowsum_direction
from tests.oracles import multistart as oracle


def _rays_setup(cost, rng, count):
    """``count`` distinct (matrix, direction, steps) ray problems."""
    problems = []
    for index in range(count):
        matrix = dirichlet_matrix(cost.size, floor=0.02, seed=rng)
        direction = random_zero_rowsum_direction(rng, cost.size)
        bound = feasible_step_bound(matrix, direction)
        steps = np.linspace(0.1, 0.9, 4 + index) * bound
        problems.append((matrix, direction, steps))
    return problems


class TestMultiRayBatch:
    def test_fused_values_bitwise_equal_per_ray(self, cost_both, rng):
        problems = _rays_setup(cost_both, rng, 3)
        solo_values = [
            RayBatch(cost_both, m, d)(steps) for m, d, steps in problems
        ]
        batch = cost_both.multi_ray_batch(
            [(m, d) for m, d, _ in problems]
        )
        fused_values = batch.evaluate([s for _, _, s in problems])
        for solo, fused in zip(solo_values, fused_values):
            assert solo.tobytes() == fused.tobytes()

    def test_fused_winner_states_match(self, cost_both, rng):
        problems = _rays_setup(cost_both, rng, 3)
        solo_rays = [
            RayBatch(cost_both, m, d) for m, d, _ in problems
        ]
        for ray, (_, _, steps) in zip(solo_rays, problems):
            ray(steps)
        batch = cost_both.multi_ray_batch(
            [(m, d) for m, d, _ in problems]
        )
        batch.evaluate([s for _, _, s in problems])
        for solo, fused in zip(solo_rays, batch.rays):
            assert solo._best_step == fused._best_step
            assert solo._best_value == fused._best_value
            state_a = solo.state_at(solo._best_step)
            state_b = fused.state_at(fused._best_step)
            assert state_a.p.tobytes() == state_b.p.tobytes()
            assert state_a.pi.tobytes() == state_b.pi.tobytes()
            assert state_a.z.tobytes() == state_b.z.tobytes()

    def test_none_entries_sit_out(self, cost_both, rng):
        problems = _rays_setup(cost_both, rng, 3)
        batch = cost_both.multi_ray_batch(
            [(m, d) for m, d, _ in problems]
        )
        values = batch.evaluate(
            [problems[0][2], None, problems[2][2]]
        )
        assert values[1] is None
        assert values[0] is not None and values[2] is not None
        # The sat-out ray recorded no winner.
        assert batch.rays[1]._best_parts is None

    def test_all_none_is_a_noop(self, cost_both, rng):
        problems = _rays_setup(cost_both, rng, 2)
        batch = cost_both.multi_ray_batch(
            [(m, d) for m, d, _ in problems]
        )
        assert batch.evaluate([None, None]) == [None, None]
        assert batch.probe_states([None, None]) == [None, None]
        assert len(batch) == 2

    def test_fused_probe_states_match(self, cost_both, rng):
        problems = _rays_setup(cost_both, rng, 3)
        solo = [
            RayBatch(cost_both, m, d).probe_state(float(steps[0]))
            for m, d, steps in problems
        ]
        batch = cost_both.multi_ray_batch(
            [(m, d) for m, d, _ in problems]
        )
        fused = batch.probe_states(
            [float(steps[0]) for _, _, steps in problems]
        )
        for (value_a, state_a), (value_b, state_b) in zip(solo, fused):
            assert value_a == value_b
            assert (state_a is None) == (state_b is None)
            if state_a is not None:
                assert state_a.p.tobytes() == state_b.p.tobytes()
                assert state_a.pi.tobytes() == state_b.pi.tobytes()
                assert state_a.z.tobytes() == state_b.z.tobytes()


class TestTrisectionState:
    def test_state_machine_matches_trisection_search(
        self, cost_both, rng
    ):
        for _ in range(3):
            matrix = dirichlet_matrix(cost_both.size, floor=0.02, seed=rng)
            direction = random_zero_rowsum_direction(rng, cost_both.size)
            bound = feasible_step_bound(matrix, direction)
            baseline = cost_both.value(matrix)

            reference = trisection_search(
                upper=bound, baseline=baseline, rounds=9,
                geometric_decades=6,
                batch_objective=RayBatch(cost_both, matrix, direction),
            )

            ray = RayBatch(cost_both, matrix, direction)
            search = TrisectionState(
                upper=bound, baseline=baseline, rounds=9,
                geometric_decades=6,
            )
            probes = search.sweep_steps()
            if probes is not None:
                values = np.asarray(ray(probes), dtype=float)
                values[~np.isfinite(values)] = np.inf
                search.observe_sweep(values)
                while True:
                    pair = search.round_steps()
                    if pair is None:
                        break
                    values = np.asarray(ray(pair), dtype=float)
                    values[~np.isfinite(values)] = np.inf
                    search.observe_round(values[0], values[1])
            lockstep = search.result()

            assert lockstep.step == reference.step
            assert lockstep.value == reference.value
            assert lockstep.evaluations == reference.evaluations
            assert lockstep.step_bound == reference.step_bound

    def test_infeasible_bound_finishes_immediately(self):
        search = TrisectionState(upper=0.0, baseline=1.0)
        assert search.finished
        assert search.sweep_steps() is None
        assert search.round_steps() is None
        assert search.result().step == 0.0

    def test_nonfinite_baseline_finishes_immediately(self):
        search = TrisectionState(upper=1.0, baseline=np.inf)
        assert search.finished
        assert search.result().step == 0.0


PERF_FIELDS = (
    "accepted_steps", "accept_factorizations", "factorizations",
    "state_builds", "states_reused", "batch_calls", "batch_matrices",
    "sparse_factorizations",
)


class TestLockstepMultistart:
    def _assert_identical(self, reference, lockstep):
        assert reference.start_labels == lockstep.start_labels
        assert reference.best_label == lockstep.best_label
        assert reference.best.best_u_eps == lockstep.best.best_u_eps
        assert len(reference.runs) == len(lockstep.runs)
        for run_a, run_b in zip(reference.runs, lockstep.runs):
            assert run_a.best_u_eps == run_b.best_u_eps
            assert (
                run_a.best_matrix.tobytes() == run_b.best_matrix.tobytes()
            )
            assert run_a.matrix.tobytes() == run_b.matrix.tobytes()
            assert run_a.iterations == run_b.iterations
            assert run_a.stop_reason == run_b.stop_reason
            # Per-iteration trajectories, not just endpoints.
            assert run_a.history == run_b.history
            assert len(run_a.checkpoints) == len(run_b.checkpoints)
            for (it_a, p_a), (it_b, p_b) in zip(
                run_a.checkpoints, run_b.checkpoints
            ):
                assert it_a == it_b
                assert p_a.tobytes() == p_b.tobytes()
            for name in PERF_FIELDS:
                assert getattr(run_a.perf, name) == getattr(
                    run_b.perf, name
                ), name

    def test_bit_identical_to_serial(self, cost_both):
        opts = PerturbedOptions(
            max_iterations=10, stall_limit=100, checkpoint_every=4
        )
        reference = oracle.optimize_multistart(
            cost_both, random_starts=3, seed=3, options=opts
        )
        lockstep = optimize_multistart(
            cost_both, random_starts=3, seed=3, options=opts
        )
        self._assert_identical(reference, lockstep)

    @pytest.mark.parametrize("family", ["city-grid", "ring-of-grids"])
    def test_sparse_bit_identical_to_serial(self, family):
        """A sparse cost skips the lockstep loop: the multi-start runs
        each start as one whole walk, and still equals the reference
        bit for bit, perf counts included."""
        cost = CoverageCost(
            scalable_topology(family, 64),
            CostWeights(alpha=1.0, beta=1.0), linalg="sparse",
        )
        opts = PerturbedOptions(
            max_iterations=8, record_history=True, checkpoint_every=3
        )
        reference = oracle.optimize_multistart(
            cost, random_starts=1, seed=0, options=opts
        )
        lockstep = optimize_multistart(
            cost, random_starts=1, seed=0, options=opts
        )
        self._assert_identical(reference, lockstep)

    def test_perf_accounting_matches_serial(self, cost_both):
        opts = PerturbedOptions(max_iterations=6, stall_limit=100)
        reference = oracle.optimize_multistart(
            cost_both, random_starts=2, seed=5, options=opts
        )
        lockstep = optimize_multistart(
            cost_both, random_starts=2, seed=5, options=opts
        )
        for run_a, run_b in zip(reference.runs, lockstep.runs):
            for name in PERF_FIELDS:
                assert getattr(run_a.perf, name) == getattr(
                    run_b.perf, name
                ), name

    def test_execution_knob_routes_to_lockstep(self, cost_both):
        """A serial executor runs the fused loop: an ambient scope sees
        fewer stacked calls than the runs' single-walk counts add up
        to, over the same probe matrices."""
        opts = PerturbedOptions(max_iterations=6, stall_limit=100)
        with perf.perf_scope() as ambient:
            routed = optimize_multistart(
                cost_both, random_starts=2, seed=4, options=opts,
                executor="serial",
            )
        assert ambient.batch_calls < sum(
            run.perf.batch_calls for run in routed.runs
        )
        assert ambient.batch_matrices == sum(
            run.perf.batch_matrices for run in routed.runs
        )

    def test_execution_serial_equals_default(self, cost_both):
        opts = PerturbedOptions(max_iterations=5, stall_limit=100)
        default = optimize_multistart(
            cost_both, random_starts=2, seed=4, options=opts
        )
        explicit = optimize_multistart(
            cost_both, random_starts=2, seed=4, options=opts,
            executor="serial",
        )
        self._assert_identical(default, explicit)

    def test_other_topology_and_weights(self, topology3):
        """Exposure-heavy weighting on the line topology, same identity."""
        cost = CoverageCost(
            topology3, CostWeights(alpha=1.0, beta=1e-3)
        )
        opts = PerturbedOptions(max_iterations=8, stall_limit=100)
        reference = oracle.optimize_multistart(
            cost, random_starts=2, seed=11, options=opts
        )
        lockstep = optimize_multistart(
            cost, random_starts=2, seed=11, options=opts
        )
        self._assert_identical(reference, lockstep)

    def test_rejects_non_trisection_options(self, topology3):
        from repro.core.perturbed import BasicDescentOptions

        cost = CoverageCost(topology3, CostWeights(alpha=1.0, beta=1.0))
        with pytest.raises(TypeError) as raised:
            optimize_multistart(
                cost, random_starts=1,
                options=BasicDescentOptions(max_iterations=2),
            )
        message = str(raised.value)
        for name in (
            "BasicDescentOptions", "AdaptiveOptions", "PerturbedOptions"
        ):
            assert name in message
