"""Lockstep multi-ray evaluation: fused == per-ray, bit for bit.

Three layers of equivalence, each pinned exactly (``==`` on floats and
raw matrix bytes, not ``allclose``):

* :class:`~repro.core.cost.MultiRayBatch` — fusing several rays' probes
  into one stacked ``batch_evaluate`` returns the same values and
  records the same per-ray winners as evaluating each ray alone;
* :class:`~repro.core.linesearch.TrisectionState` — the state machine
  the lockstep driver advances stage by stage reproduces
  :func:`~repro.core.linesearch.trisection_search` exactly;
* :func:`~repro.core.lockstep.lockstep_multistart` — every start's full
  trajectory (history, matrices, perf accounting) equals the serial
  ``optimize_multistart(..., executor=None)`` run's.
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
from repro.core.lockstep import lockstep_multistart
from repro.core.multistart import optimize_multistart
from repro.core.initializers import dirichlet_matrix
from repro.topology.library import scalable_topology

from tests.conftest import random_zero_rowsum_direction


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


class TestLockstepMultistart:
    def _assert_identical(self, serial, lockstep):
        assert serial.start_labels == lockstep.start_labels
        assert serial.best_label == lockstep.best_label
        assert serial.best.best_u_eps == lockstep.best.best_u_eps
        for run_a, run_b in zip(serial.runs, lockstep.runs):
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

    def test_bit_identical_to_serial(self, cost_both):
        opts = PerturbedOptions(
            max_iterations=10, stall_limit=100, checkpoint_every=4
        )
        serial = optimize_multistart(
            cost_both, random_starts=3, seed=3, options=opts,
            executor=None,
        )
        lockstep = lockstep_multistart(
            cost_both, random_starts=3, seed=3, options=opts
        )
        self._assert_identical(serial, lockstep)

    @pytest.mark.parametrize("family", ["city-grid", "ring-of-grids"])
    def test_sparse_bit_identical_to_serial(self, family):
        """On the sparse path each ray is evaluated in its own call, so
        lockstep still equals the serial driver bit for bit."""
        cost = CoverageCost(
            scalable_topology(family, 64),
            CostWeights(alpha=1.0, beta=1.0), linalg="sparse",
        )
        opts = PerturbedOptions(max_iterations=8, record_history=True)
        serial = optimize_multistart(
            cost, random_starts=1, seed=0, options=opts
        )
        lockstep = lockstep_multistart(
            cost, random_starts=1, seed=0, options=opts
        )
        self._assert_identical(serial, lockstep)

    def test_perf_accounting_matches_serial(self, cost_both):
        opts = PerturbedOptions(max_iterations=6, stall_limit=100)
        serial = optimize_multistart(
            cost_both, random_starts=2, seed=5, options=opts
        )
        lockstep = lockstep_multistart(
            cost_both, random_starts=2, seed=5, options=opts
        )
        for run_a, run_b in zip(serial.runs, lockstep.runs):
            perf_a, perf_b = run_a.perf, run_b.perf
            assert perf_a.accepted_steps == perf_b.accepted_steps
            assert (
                perf_a.accept_factorizations
                == perf_b.accept_factorizations
            )
            assert perf_a.factorizations == perf_b.factorizations
            assert perf_a.state_builds == perf_b.state_builds
            assert perf_a.states_reused == perf_b.states_reused
            assert perf_a.batch_calls == perf_b.batch_calls
            assert perf_a.batch_matrices == perf_b.batch_matrices

    def test_execution_knob_routes_to_lockstep(self, cost_both):
        opts = PerturbedOptions(max_iterations=6, stall_limit=100)
        direct = lockstep_multistart(
            cost_both, random_starts=2, seed=4, options=opts
        )
        routed = optimize_multistart(
            cost_both, random_starts=2, seed=4, options=opts,
            execution="lockstep",
        )
        self._assert_identical(direct, routed)

    def test_execution_serial_equals_default(self, cost_both):
        opts = PerturbedOptions(max_iterations=5, stall_limit=100)
        default = optimize_multistart(
            cost_both, random_starts=2, seed=4, options=opts
        )
        explicit = optimize_multistart(
            cost_both, random_starts=2, seed=4, options=opts,
            execution="serial",
        )
        self._assert_identical(default, explicit)

    def test_execution_and_executor_conflict(self, cost_both):
        with pytest.raises(ValueError, match="not both"):
            optimize_multistart(
                cost_both, execution="lockstep", executor="serial"
            )

    def test_lockstep_requires_default_optimizer(self, cost_both):
        from repro.core.perturbed import optimize_adaptive

        with pytest.raises(ValueError, match="perturbed"):
            optimize_multistart(
                cost_both, optimizer=optimize_adaptive,
                execution="lockstep",
            )

    def test_other_topology_and_weights(self, topology3):
        """Exposure-heavy weighting on the line topology, same identity."""
        cost = CoverageCost(
            topology3, CostWeights(alpha=1.0, beta=1e-3)
        )
        opts = PerturbedOptions(max_iterations=8, stall_limit=100)
        serial = optimize_multistart(
            cost, random_starts=2, seed=11, options=opts
        )
        lockstep = lockstep_multistart(
            cost, random_starts=2, seed=11, options=opts
        )
        self._assert_identical(serial, lockstep)
