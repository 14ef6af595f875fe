"""The sparse line search evaluates support values, never dense stacks.

On the sparse path (``linalg="sparse"`` with an adjacency support) a
:class:`~repro.core.cost.RayBatch` carries only its base's and
direction's support values, so its probes are ``(k, nnz)`` rows and
:meth:`~repro.core.cost.CoverageCost.batch_evaluate` reads them
directly.  A public ``(k, M, M)`` dense stack is gathered to the same
values.  These tests pin:

* the differential contract — support values and the equivalent dense
  stack give byte-identical ``values``, ``pis`` and ``ok``, on feasible
  and infeasible probes, and a dense stack with mass off the support is
  infeasible;
* lockstep fusion — a :class:`~repro.core.cost.MultiRayBatch` records
  the same winners and states as serial rays;
* the ported Section VII terms (energy, entropy) — their support forms
  match their scalar values;
* the contract — a ray with off-support mass raises, and a line search
  allocates less than one dense probe stack.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CostWeights, CoverageCost, PerturbedOptions
from repro.core.cost import MultiRayBatch, RayBatch
from repro.core.initializers import paper_random_matrix
from repro.core.linesearch import feasible_step_bound, trisection_search
from repro.core.perturbed import optimize_perturbed
from repro.core.terms import TermBatch
from repro.topology.library import scalable_topology
from repro.topology.model import Topology
from repro.topology.random_gen import random_topology

FAMILIES = ["city-grid", "ring-of-grids"]


def _sparse_cost(topology, **weights):
    cost = CoverageCost(topology, CostWeights(**weights), linalg="sparse")
    assert cost.resolved_linalg == "sparse" and cost.support is not None
    return cost


def _ray(cost, seed):
    """A support-respecting base matrix and projected direction."""
    rng = np.random.default_rng(seed)
    matrix = paper_random_matrix(cost.size, seed=rng, support=cost.support)
    direction = cost.project(rng.normal(size=(cost.size, cost.size)))
    return matrix, direction


def _dense(support, values):
    """Scatter ``(k, nnz)`` support values into a ``(k, M, M)`` stack."""
    stack = np.zeros((len(values),) + support.shape)
    stack[:, support] = values
    return stack


def _edge_probes(cost, feasible):
    """Feasible rows plus one probe per way a support value can fail."""
    rows, cols = np.nonzero(cost.support)
    off = int(np.flatnonzero(rows != cols)[0])
    diag = int(np.flatnonzero(rows == cols)[0])
    below, above, stuck = (feasible[0].copy() for _ in range(3))
    below[off] = -1e-3
    above[off] = 1.5
    stuck[diag] = 1.0 - 1e-14
    return np.vstack([feasible, below, above, stuck])


def _assert_same(first, second):
    for left, right in zip(first, second):
        if left is None:
            assert right is None
        else:
            assert left.tobytes() == right.tobytes()


def _check_values_vs_dense(cost, matrix, direction, steps):
    ray = RayBatch(cost, matrix, direction)
    values = _edge_probes(cost, ray._probes(steps))
    assert values.ndim == 2
    stack = _dense(cost.support, values)
    by_values = cost.batch_evaluate(values)
    by_stack = cost.batch_evaluate(stack)
    _assert_same(by_values, by_stack)
    ok = by_values[3]
    assert ok[: len(steps)].any()
    assert not ok[len(steps):].any()
    assert np.isinf(by_values[0][len(steps):]).all()
    # Mass off the support: only a dense stack can carry it.
    leak = stack[0].copy()
    j, k = np.argwhere(~cost.support)[0]
    leak[j, k] = 1e-3
    values_leak, _, _, ok_leak = cost.batch_evaluate(
        np.stack([stack[0], leak])
    )
    assert ok_leak.tolist() == [ok[0], False]
    assert np.isinf(values_leak[1])


@pytest.mark.parametrize("family", FAMILIES)
def test_support_values_match_dense_stack(family):
    cost = _sparse_cost(scalable_topology(family, 64))
    matrix, direction = _ray(cost, 5)
    bound = feasible_step_bound(matrix, direction)
    steps = np.linspace(0.0, 1.3, 9) * bound
    _check_values_vs_dense(cost, matrix, direction, steps)


def _support_topology(count, extra, seed):
    """A random-position topology on a generated strongly-connected
    support: a directed ring plus random extra legs."""
    base = random_topology(count, seed=seed)
    rng = np.random.default_rng(seed)
    support = rng.random((count, count)) < extra
    ring = np.arange(count)
    support[ring, (ring + 1) % count] = True
    support[ring, ring] = True
    return Topology(
        base.positions, base.target_shares, base.sensing_radius,
        speed=base.speed, pause_times=base.pause_times, adjacency=support,
    )


@settings(
    deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    count=st.integers(3, 25), extra=st.floats(0.0, 0.6),
    seed=st.integers(0, 2**16),
)
def test_generated_supports_match_dense_stack(count, extra, seed):
    cost = _sparse_cost(_support_topology(count, extra, seed))
    matrix, direction = _ray(cost, seed)
    bound = feasible_step_bound(matrix, direction)
    steps = np.linspace(0.0, 1.3, 6) * bound
    if not cost.support.all():
        _check_values_vs_dense(cost, matrix, direction, steps)
    else:  # nothing off the support to leak into
        ray = RayBatch(cost, matrix, direction)
        values = _edge_probes(cost, ray._probes(steps))
        _assert_same(
            cost.batch_evaluate(values),
            cost.batch_evaluate(_dense(cost.support, values)),
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_step_bound_is_the_dense_bound(family):
    cost = _sparse_cost(scalable_topology(family, 64))
    for seed in range(4):
        matrix, direction = _ray(cost, seed)
        ray = RayBatch(cost, matrix, direction)
        assert ray.step_bound() == feasible_step_bound(matrix, direction)


def test_lockstep_rays_match_serial_rays():
    cost = _sparse_cost(scalable_topology("city-grid", 64))
    problems = []
    for seed in range(3):
        matrix, direction = _ray(cost, seed)
        bound = feasible_step_bound(matrix, direction)
        problems.append(
            (matrix, direction, np.linspace(0.05, 0.9, 4 + seed) * bound)
        )
    serial = [RayBatch(cost, m, d) for m, d, _ in problems]
    serial_values = [ray(steps) for ray, (_, _, steps) in
                     zip(serial, problems)]
    fused = MultiRayBatch.from_directions(
        cost, [(m, d) for m, d, _ in problems]
    )
    fused_values = fused.evaluate([steps for _, _, steps in problems])
    fallbacks = [steps[1] for _, _, steps in problems]
    fused_probes = fused.probe_states(fallbacks)
    for index, (solo, lock) in enumerate(zip(serial, fused.rays)):
        assert serial_values[index].tobytes() == fused_values[index].tobytes()
        assert solo._best_step == lock._best_step is not None
        mine = lock.state_at(lock._best_step)
        theirs = solo.state_at(solo._best_step)
        assert mine.p.tobytes() == theirs.p.tobytes()
        assert mine.pi.tobytes() == theirs.pi.tobytes()
        value, state = solo.probe_state(fallbacks[index])
        assert value == fused_probes[index][0]
        assert state.p.tobytes() == fused_probes[index][1].p.tobytes()
        assert state.pi.tobytes() == fused_probes[index][1].pi.tobytes()


def test_winner_is_the_dense_ray_point():
    cost = _sparse_cost(scalable_topology("ring-of-grids", 64))
    matrix, direction = _ray(cost, 11)
    ray = RayBatch(cost, matrix, direction)
    steps = np.linspace(0.1, 0.9, 5) * feasible_step_bound(matrix, direction)
    ray(steps)
    state = ray.state_at(ray._best_step)
    expected = matrix + ray._best_step * direction
    assert state.p.tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_energy_and_entropy_support_forms_match_scalar(family):
    cost = _sparse_cost(
        scalable_topology(family, 64), energy_weight=0.3,
        energy_target=20.0, entropy_weight=0.2,
    )
    matrix, direction = _ray(cost, 3)
    bound = feasible_step_bound(matrix, direction)
    values = RayBatch(cost, matrix, direction)._probes(
        np.linspace(0.0, 0.9, 5) * bound
    )
    states = [cost.build_state(p) for p in _dense(cost.support, values)]
    np.testing.assert_allclose(
        cost.batch_values(values),
        [cost.value(state) for state in states],
        rtol=1e-10,
    )
    _, pis, _, ok = cost.batch_evaluate(values)
    assert ok.all()
    batch = TermBatch(
        pis=pis, stack=None, diag=np.zeros_like(pis),
        exposures=np.zeros_like(pis), ok=ok, entries=values,
    )
    for label in ("energy", "entropy"):
        term = cost.term_sum.member(label)
        np.testing.assert_allclose(
            term.batch_value(batch),
            [term.value(state) for state in states],
            rtol=1e-10,
        )


def test_descent_with_energy_and_entropy_completes():
    cost = _sparse_cost(
        scalable_topology("city-grid", 64), energy_weight=0.3,
        entropy_weight=0.2,
    )
    result = optimize_perturbed(
        cost, seed=0, options=PerturbedOptions(max_iterations=3)
    )
    assert len(result.history) == 3
    assert np.isfinite(result.best_u_eps)


def test_ray_rejects_mass_off_the_support():
    cost = _sparse_cost(scalable_topology("city-grid", 64))
    matrix, direction = _ray(cost, 1)
    j, k = np.argwhere(~cost.support)[0]
    leaky_base = matrix.copy()
    leaky_base[j, k] = 1e-6
    leaky_direction = direction.copy()
    leaky_direction[j, k] = -1e-6
    with pytest.raises(ValueError, match="support"):
        RayBatch(cost, leaky_base, direction)
    with pytest.raises(ValueError, match="support"):
        RayBatch(cost, matrix, leaky_direction)


def test_line_search_allocates_less_than_one_dense_stack():
    size = 256
    cost = _sparse_cost(scalable_topology("city-grid", size))
    state = cost.build_state(
        paper_random_matrix(size, seed=2, support=cost.support)
    )
    direction = cost.descent_direction(state)
    baseline = cost.value(state)
    tracemalloc.start()
    try:
        ray = cost.ray_batch(state.p, direction)
        result = trisection_search(
            upper=ray.step_bound(), baseline=baseline, batch_objective=ray
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations >= 13
    assert peak < 13 * size * size * 8
