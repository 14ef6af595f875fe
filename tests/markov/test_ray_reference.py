"""One LU per sparse chain state; probes refine against their ray's base.

A sparse chain state on an adjacency support owns one factorization,
the LU of the bordered core ``B = I - P + 1 e_n^T``: it reads
``pi = B^{-T} e_n`` from it and its core solves reuse it.  A line-search
ray from that state solves each probe's ``B(P')^T x = e_n`` by iterative
refinement against the same LU, starting from the base's ``pi``
(:meth:`~repro.markov.sparse.SparseStationaryTemplate.solve_batch`).
Over city-grid and ring-of-grids supports, with walk-like and
near-barrier chains, these tests pin:

* accuracy — a walk-like probe's ``pi`` matches a scratch ``splu`` of
  the probe to 1e-12 relative; on near-barrier chains, whose scratch
  solves disagree among themselves far beyond that, the refined ``pi``
  solves its own system to a 1e-13 residual;
* invariance — a probe's ``pi`` is byte-identical alone, in any batch
  and in any order;
* the fallback — a probe far along the ray gets its own factorization
  and still matches;
* state builds — the sparse ``pi`` of :meth:`ChainState.from_matrix`
  matches :func:`stationary_via_linear_solve`, one sparse LU serves a
  state's ``pi`` and its gradient, and a ray's nearby probes factor
  nothing.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CostWeights, CoverageCost
from repro.core.initializers import paper_random_matrix
from repro.core.linesearch import feasible_step_bound
from repro.core.state import ChainState
from repro.markov.sparse import SparseCoreSolver, SparseStationaryTemplate
from repro.markov.stationary import stationary_via_linear_solve
from repro.topology.library import scalable_topology
from repro.utils import perf
from repro.utils.linalg import project_row_sum_zero

SIZES = {"city-grid": (16, 36, 64), "ring-of-grids": (32, 64)}


@functools.lru_cache(maxsize=None)
def _template(family: str, size: int) -> SparseStationaryTemplate:
    return SparseStationaryTemplate(scalable_topology(family, size).adjacency)


def _chain(support, rng, near_barrier: bool) -> np.ndarray:
    """A random chain on ``support``; near the barrier, 30% of its legs
    are pushed down to 1e-5 before renormalizing."""
    matrix = paper_random_matrix(support.shape[0], seed=rng, support=support)
    if near_barrier:
        rows, cols = np.nonzero(support)
        pick = rng.random(rows.size) < 0.3
        matrix[rows[pick], cols[pick]] = 1e-5
        matrix /= matrix.sum(axis=1, keepdims=True)
    return matrix


def _ray(template, seed, near_barrier, fractions):
    """``(base, probes)``: support-value probes ``base + t * direction``
    at ``fractions`` of the feasible step bound."""
    support = template.dense(np.ones(template.nnz)) > 0
    rng = np.random.default_rng(seed)
    base = _chain(support, rng, near_barrier)
    direction = project_row_sum_zero(
        rng.normal(size=base.shape), support
    )
    steps = feasible_step_bound(base, direction) * np.asarray(fractions)
    return base, template.values(
        base[None] + steps[:, None, None] * direction
    )


def _relative(mine, scratch) -> float:
    return float(np.abs(mine - scratch).max() / np.abs(scratch).max())


def _residual(template, values, pi) -> float:
    """``|B(P')^T pi - e_n|_inf`` on the support values."""
    image = pi - np.bincount(
        template.cols, weights=values * pi[template.rows],
        minlength=template.size,
    )
    image[-1] += pi.sum()
    image[-1] -= 1.0
    return float(np.abs(image).max())


instances = dict(
    family=st.sampled_from(sorted(SIZES)),
    size_index=st.integers(0, 2),
    seed=st.integers(0, 2**16),
    near_barrier=st.booleans(),
)
fractions = st.lists(
    st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.9, 0.999]),
    min_size=2, max_size=6,
)
SETTINGS = settings(
    deadline=None, max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)


def _size(family, size_index):
    sizes = SIZES[family]
    return sizes[size_index % len(sizes)]


@SETTINGS
@given(steps=fractions, **instances)
def test_probe_pi_matches_a_scratch_factorization(
    family, size_index, seed, near_barrier, steps
):
    template = _template(family, _size(family, size_index))
    base, probes = _ray(template, seed, near_barrier, steps)
    reference = SparseCoreSolver(base, template=template)
    solved = template.solve_batch(probes, range(len(steps)), reference)
    assert sorted(solved) == list(range(len(steps)))
    for index, pi in solved.items():
        if near_barrier:
            assert _residual(template, probes[index], pi) < 1e-13
        else:
            scratch = template.solve(template.dense(probes[index]))
            assert _relative(pi, scratch) < 1e-12


@SETTINGS
@given(
    steps=fractions, order_seed=st.integers(0, 2**16),
    others=st.integers(0, 3), **instances,
)
def test_probe_pi_is_independent_of_its_batch(
    family, size_index, seed, near_barrier, steps, order_seed, others
):
    template = _template(family, _size(family, size_index))
    base, probes = _ray(template, seed, near_barrier, steps)
    reference = SparseCoreSolver(base, template=template)
    # Batch mates: the ray's own probes plus probes of unrelated rays.
    strangers = [
        _ray(template, seed + 1 + other, near_barrier, [0.2, 0.7])[1]
        for other in range(others)
    ]
    stack = np.vstack([probes] + strangers)
    order = np.random.default_rng(order_seed).permutation(len(stack))
    batched = template.solve_batch(stack, order, reference)
    for index in range(len(steps)):
        alone = template.solve_batch(probes, [index], reference)
        assert alone[index].tobytes() == batched[index].tobytes()


@SETTINGS
@given(**instances)
def test_far_probe_takes_the_fallback_and_matches(
    family, size_index, seed, near_barrier
):
    template = _template(family, _size(family, size_index))
    support = template.dense(np.ones(template.nnz)) > 0
    rng = np.random.default_rng(seed)
    base = _chain(support, rng, near_barrier)
    far = paper_random_matrix(support.shape[0], seed=rng, support=support)
    # The end of the ray from ``base`` through ``far`` (step 1).
    probes = template.values(np.stack([base, 0.5 * (base + far), far]))
    reference = SparseCoreSolver(base, template=template)
    with perf.perf_scope() as counters:
        alone = template.solve_batch(probes, [2], reference)
    assert counters.sparse_factorizations == 1
    assert _relative(alone[2], template.solve(far)) < 1e-12
    batched = template.solve_batch(probes, [2, 1, 0], reference)
    assert batched[2].tobytes() == alone[2].tobytes()


@SETTINGS
@given(**instances)
def test_state_pi_matches_the_dense_solve(
    family, size_index, seed, near_barrier
):
    template = _template(family, _size(family, size_index))
    support = template.dense(np.ones(template.nnz)) > 0
    matrix = _chain(support, np.random.default_rng(seed), near_barrier)
    with perf.perf_scope() as counters:
        state = ChainState.from_matrix(matrix, template=template)
    assert counters.sparse_factorizations == 1
    if near_barrier:
        values = template.values(matrix)
        assert _residual(template, values, state.pi) < 1e-13
    else:
        np.testing.assert_allclose(
            state.pi, stationary_via_linear_solve(matrix),
            rtol=0, atol=1e-12,
        )


def test_one_lu_serves_a_state_and_its_rays_nearby_probes():
    cost = CoverageCost(
        scalable_topology("city-grid", 64),
        CostWeights(alpha=1.0, beta=1e-3), linalg="sparse",
    )
    matrix = paper_random_matrix(64, seed=3, support=cost.support)
    with perf.perf_scope() as counters:
        state = cost.build_state(matrix)
        direction = cost.descent_direction(state)
        ray = cost.ray_batch(state, direction)
        ray(ray.step_bound() * np.array([1e-9, 1e-7, 1e-5]))
        winner = ray.state_at(ray._best_step)
    assert counters.sparse_factorizations == 1
    assert counters.state_builds == 1
    assert winner.pi.tobytes() == ray._best_parts[1].tobytes()
    # The winner factors its own core on first use: its second LU.
    with perf.perf_scope() as counters:
        winner.solve_core(np.ones(64))
    assert counters.sparse_factorizations == 1
