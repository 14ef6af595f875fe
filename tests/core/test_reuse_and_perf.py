"""Line-search state reuse, perf counters, and batched-state parity.

The hot-path contract: an accepted step carries the line search's
winning probe's ``(pi, Z)`` — bit-identical to a scratch rebuild of the
accepted matrix on the dense path — so it costs one factorization
instead of three.
"""

from dataclasses import astuple

import numpy as np
import pytest

from repro import CostWeights, CoverageCost, optimize, paper_topology
from repro.core.perturbed import (
    AdaptiveOptions,
    PerturbedOptions,
    PerturbedWalk,
    advance_walk,
    optimize_adaptive,
    optimize_perturbed,
)
from repro.core.state import ChainState
from repro.topology.library import scalable_topology
from repro.utils.perf import perf_scope


@pytest.fixture
def cost():
    return CoverageCost(
        paper_topology(1), CostWeights(alpha=1.0, beta=1.0)
    )


@pytest.fixture
def extended_cost():
    """Every term enabled — energy and entropy extensions included."""
    return CoverageCost(
        paper_topology(2),
        CostWeights(
            alpha=1.0, beta=1e-2, epsilon=1e-3,
            energy_weight=1e-4, energy_target=10.0,
            entropy_weight=1e-3,
        ),
    )


def _breakdown_bytes(breakdown):
    """Every field of a CostBreakdown as exact bytes."""
    return [
        np.asarray(value).tobytes() if not isinstance(value, tuple)
        else repr(value)
        for value in astuple(breakdown)
    ]


class TestCarriedState:
    """Accepted steps carry the line search's ``(pi, Z)`` instead of
    refactorizing; :meth:`PerturbedWalk.restore` rebuilds from the
    matrix.  Resume is exact only because, on the dense path, the
    carried state equals a scratch build bit for bit."""

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("topology_id", [1, 2, 3, 4])
    @pytest.mark.parametrize("method", ["adaptive", "perturbed"])
    def test_matches_scratch_build(
        self, method, topology_id, seed
    ):
        cost = CoverageCost(
            paper_topology(topology_id), CostWeights(alpha=1.0, beta=1.0)
        )
        self._check_walk(cost, method, seed)

    @pytest.mark.parametrize("method", ["adaptive", "perturbed"])
    def test_extended_terms(self, extended_cost, method):
        self._check_walk(extended_cost, method, seed=11)

    def test_restore_continues_bit_identically(self):
        """A snapshot taken right after an accepted step on Topology 4
        resumes onto the uninterrupted trajectory."""
        cost = CoverageCost(
            paper_topology(4), CostWeights(alpha=1.0, beta=1.0)
        )
        options = PerturbedOptions(max_iterations=30, stall_limit=100)
        full = PerturbedWalk(cost, None, 2, options)
        while advance_walk(cost, full, options):
            pass
        walk = PerturbedWalk(cost, None, 2, options)
        while walk.iteration < 26 and advance_walk(cost, walk, options):
            pass
        resumed = PerturbedWalk.restore(cost, walk.snapshot(), options)
        while advance_walk(cost, resumed, options):
            pass
        assert resumed.state.p.tobytes() == full.state.p.tobytes()
        assert [r.u_eps for r in resumed.history] == [
            r.u_eps for r in full.history
        ]

    @staticmethod
    def _check_walk(cost, method, seed):
        if method == "adaptive":
            options = AdaptiveOptions(max_iterations=30)
        else:
            options = PerturbedOptions(max_iterations=30, stall_limit=100)
        walk = PerturbedWalk(cost, None, seed, options)
        checked = 0
        while advance_walk(cost, walk, options):
            if walk.accepted_steps == checked:
                continue
            checked = walk.accepted_steps
            rebuilt = cost.build_state(walk.state.p)
            assert walk.state.pi.tobytes() == rebuilt.pi.tobytes()
            assert walk.state.z.tobytes() == rebuilt.z.tobytes()
            assert _breakdown_bytes(walk.breakdown) == _breakdown_bytes(
                cost.evaluate(rebuilt)
            )
        assert checked > 0


class TestPerfCounters:
    def test_reuse_drops_accept_factorizations_to_zero(self, cost):
        result = optimize_perturbed(
            cost, seed=3,
            options=PerturbedOptions(
                max_iterations=30, record_history=False, stall_limit=100
            ),
        )
        perf = result.perf
        assert perf is not None
        assert perf.accepted_steps > 0
        assert perf.accept_factorizations == 0
        assert perf.factorizations_per_accepted_step() == 1.0
        assert perf.states_reused >= perf.accepted_steps
        assert perf.batch_calls > 0
        assert perf.seconds > 0.0

    def test_adaptive_counters(self, cost):
        result = optimize_adaptive(
            cost, seed=3,
            options=AdaptiveOptions(
                max_iterations=30, record_history=False
            ),
        )
        perf = result.perf
        assert perf is not None
        if perf.accepted_steps:
            assert perf.factorizations_per_accepted_step() == 1.0

    @pytest.mark.parametrize("method", ["basic", "adaptive", "perturbed"])
    def test_sparse_counters_reach_run_perf(self, method):
        """A sparse run's per-run perf carries the sparse
        factorization count its perf scope saw."""
        cost = CoverageCost(
            scalable_topology("city-grid", 64),
            CostWeights(alpha=1.0, beta=1.0), linalg="sparse",
        )
        kwargs = {"seed": 1, "options": {
            "max_iterations": 4, "trisection_rounds": 6,
            "geometric_decades": 4,
        }}
        if method == "basic":
            kwargs = {"options": {"max_iterations": 4, "step_size": 1e-4}}
        with perf_scope() as counters:
            result = optimize(cost, method=method, **kwargs)
        assert counters.sparse_factorizations > 0
        assert result.perf.sparse_factorizations == (
            counters.sparse_factorizations
        )


class TestBatchFeasibilityMask:
    def test_entry_above_one_maps_to_inf(self, cost):
        # All entries non-negative and the diagonal below one, so neither
        # the >= 0 mask nor the diagonal mask fires: only the dedicated
        # <= 1 mask can reject this stack member.
        bad = np.full((4, 4), 0.25)
        bad[0, 1] = 1.2
        values = cost.batch_values(
            np.stack([bad, np.full((4, 4), 0.25)])
        )
        assert np.isinf(values[0])
        assert np.isfinite(values[1])

    def test_negative_entry_maps_to_inf(self, cost):
        bad = np.full((4, 4), 0.25)
        bad[0, 0] = 0.5
        bad[0, 1] = -0.25  # row still sums to one but leaves the box
        values = cost.batch_values(bad[None])
        assert np.isinf(values[0])

    def test_batch_evaluate_returns_usable_states(self, extended_cost):
        rng = np.random.default_rng(0)
        size = extended_cost.size
        stack = 0.05 + 0.8 * rng.dirichlet(
            np.ones(size), size=(6, size)
        )
        stack = stack / stack.sum(axis=2, keepdims=True)
        values, pis, zs, ok = extended_cost.batch_evaluate(stack)
        assert ok.all()
        for index in range(stack.shape[0]):
            scalar = ChainState.from_matrix(stack[index])
            assert pis[index] == pytest.approx(scalar.pi, rel=1e-12)
            assert zs[index] == pytest.approx(scalar.z, rel=1e-9)
            assert values[index] == pytest.approx(
                extended_cost.value(scalar), rel=1e-10
            )


class TestRayBatchStateHandback:
    def test_state_at_matches_scratch_build(self, cost, rng):
        matrix = 0.05 + 0.8 * rng.dirichlet(np.ones(4), size=4)
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
        state = ChainState.from_matrix(matrix)
        direction = cost.descent_direction(state)
        ray = cost.ray_batch(state.p, direction)
        steps = np.array([1e-7, 1e-6, 1e-5])
        values = ray(steps)
        best = float(steps[int(np.argmin(values))])
        winner = ray.state_at(best)
        assert winner is not None
        scratch = ChainState.from_matrix(winner.p, check=False)
        assert np.array_equal(winner.pi, scratch.pi)
        assert np.array_equal(winner.z, scratch.z)

    def test_state_at_unknown_step_returns_none(self, cost, rng):
        matrix = 0.05 + 0.8 * rng.dirichlet(np.ones(4), size=4)
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
        state = ChainState.from_matrix(matrix)
        direction = cost.descent_direction(state)
        ray = cost.ray_batch(state.p, direction)
        ray(np.array([1e-6]))
        assert ray.state_at(3.3e-6) is None

    def test_probe_state_matches_scalar(self, cost, rng):
        matrix = 0.05 + 0.8 * rng.dirichlet(np.ones(4), size=4)
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
        state = ChainState.from_matrix(matrix)
        direction = cost.descent_direction(state)
        ray = cost.ray_batch(state.p, direction)
        value, probe = ray.probe_state(2e-6)
        assert probe is not None
        scratch = ChainState.from_matrix(
            matrix + 2e-6 * direction, check=False
        )
        assert np.array_equal(probe.pi, scratch.pi)
        assert np.array_equal(probe.z, scratch.z)
        assert value == pytest.approx(cost.value(scratch), rel=1e-12)
