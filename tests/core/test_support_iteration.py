"""Sparse descent iterations run on support values.

On the sparse path with an adjacency support the gradient, the noisy
projection and the ray are computed on the ``(nnz,)`` support values
(:func:`repro.core.gradient.support_derivative`, the template's
``project``, :meth:`~repro.core.perturbed.PerturbedWalk.
begin_iteration`).  ``tests/oracles/gradient.py`` assembles the same
contract on dense ``(M, M)`` arrays: row sums in support order, ``nnz``
normals drawn at the support, and the gradient norm's support formula.
These tests pin:

* the differential contract — each term's support partials,
  ``cost.gradient``,
  ``cost.projected_gradient``, the walk's direction values, its
  ``gradient_norm``, its step bound and its RNG position equal the
  dense assembly's byte for byte, on city-grid, ring-of-grids and
  generated supports (with and without self-loops), for the paper's
  terms alone, with the Section VII terms, and with the plugin terms,
  and whatever the memory layout of the input matrix;
* the norm — the support formula (no ``(M, M)`` derivative) is the
  Frobenius norm of the whole dense derivative to 1e-12 relative, on
  the same supports and compositions;
* the memory contract — one sparse ``begin_iteration`` (perturbed and
  adaptive) and one sparse ``evaluate`` each allocate less than a
  quarter of a dense ``(M, M)`` buffer, and a whole sparse iteration
  less than three (the line search winner's dense ``P`` and the
  best-matrix copy);
* the noise draw — standard normals scaled after the draw are numpy's
  ``normal(0, scale)`` draw byte for byte, stream position included:
  ``M^2`` of them on the dense layout, ``nnz`` on the support layout.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro import CostWeights, CoverageCost, paper_topology
from repro.core.initializers import paper_random_matrix
from repro.core.perturbed import (
    AdaptiveOptions,
    BasicDescentOptions,
    PerturbedOptions,
    PerturbedWalk,
    advance_walk,
)
from repro.topology.library import scalable_topology
from repro.topology.model import Topology
from repro.topology.random_gen import random_topology
from repro.utils.linalg import frobenius_norm
from tests.oracles import gradient as oracle

COMPOSITIONS = {
    "paper": ({}, ()),
    "section7": (
        {"energy_weight": 0.3, "energy_target": 20.0,
         "entropy_weight": 0.2},
        (),
    ),
    "plugins": (
        {},
        (("minimax", 0.5), ("kcoverage", 0.7), ("periodicity", 0.1)),
    ),
}

VARIANTS = (
    PerturbedOptions(),
    PerturbedOptions(sigma=0.3, relative_noise=False),
    AdaptiveOptions(),
    BasicDescentOptions(),
)


@functools.lru_cache(maxsize=None)
def _topology(kind: str, seed: int) -> Topology:
    """A scalable family, or a generated strongly-connected support: a
    directed ring plus random extra legs, with or without self-loops."""
    if kind in ("city-grid", "ring-of-grids"):
        return scalable_topology(kind, 48 if kind == "city-grid" else 32)
    count = 6 + seed % 17
    base = random_topology(count, seed=seed)
    rng = np.random.default_rng(seed)
    support = rng.random((count, count)) < 0.3
    ring = np.arange(count)
    support[ring, (ring + 1) % count] = True
    support[ring, ring] = kind == "loops"
    return Topology(
        base.positions, base.target_shares, base.sensing_radius,
        speed=base.speed, pause_times=base.pause_times, adjacency=support,
    )


@functools.lru_cache(maxsize=None)
def _cost(kind: str, seed: int, composition: str) -> CoverageCost:
    weights, extra = COMPOSITIONS[composition]
    cost = CoverageCost(
        _topology(kind, seed), CostWeights(alpha=1.0, beta=1e-3, **weights),
        linalg="sparse", extra_terms=extra,
    )
    assert cost._probe_template() is not None
    return cost


def _state(cost: CoverageCost, seed: int, near_barrier: bool):
    rng = np.random.default_rng(seed)
    matrix = paper_random_matrix(cost.size, seed=rng, support=cost.support)
    if near_barrier:
        # Push some legs into the barrier band p <= eps, then renormalize.
        rows, cols = np.nonzero(cost.support)
        pick = rng.random(rows.size) < 0.3
        matrix[rows[pick], cols[pick]] = 1e-5
        matrix /= matrix.sum(axis=1, keepdims=True)
    return cost.build_state(matrix)


def _same_float(left: float, right: float) -> bool:
    return np.float64(left).tobytes() == np.float64(right).tobytes()


@settings(
    deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["city-grid", "ring-of-grids", "loops", "no-loops"]),
    composition=st.sampled_from(sorted(COMPOSITIONS)),
    topology_seed=st.integers(0, 50),
    seed=st.integers(0, 2**16),
    near_barrier=st.booleans(),
    fortran=st.booleans(),
)
def test_support_iteration_matches_dense_assembly(
    kind, composition, topology_seed, seed, near_barrier, fortran
):
    cost = _cost(kind, topology_seed, composition)
    template = cost.ray_layout()
    state = _state(cost, seed, near_barrier)
    # Public inputs keep their memory layout; a Fortran-ordered P must
    # give what the oracle gives on the C-ordered state.
    subject = np.asfortranarray(state.p) if fortran else state

    for term in cost.terms:
        part = term.support_partials(state, template)
        grad_pi, grad_z, grad_p = oracle.partials(term, state)
        for mine, theirs in ((part.grad_pi, grad_pi),
                             (part.grad_z, grad_z)):
            assert (mine is None) == (theirs is None)
            assert mine is None or mine.tobytes() == theirs.tobytes()
        if grad_p is None:
            assert part.values is None and part.remainder is None
            continue
        assert part.values.tobytes() == template.values(grad_p).tobytes()
        off = ~cost.support
        if part.remainder is None:
            assert not grad_p[off].any()
        else:
            assert part.remainder[off].tobytes() == grad_p[off].tobytes()

    assert (
        cost.gradient(subject).tobytes()
        == oracle.total_derivative(state, cost.terms).tobytes()
    )
    assert (
        cost.projected_gradient(subject).tobytes()
        == oracle.projected_gradient(cost, state).tobytes()
    )
    for options in VARIANTS:
        walk = PerturbedWalk(cost, subject, seed, options)
        reference_rng = np.random.default_rng(seed)
        spec = walk.begin_iteration()
        direction, norm, bound = oracle.begin_iteration(
            cost, state, reference_rng, options
        )
        assert (
            walk._direction.tobytes()
            == template.values(direction).tobytes()
        )
        assert not direction[~cost.support].any()
        assert _same_float(walk._gradient_norm, norm)
        assert _same_float(spec.bound, bound)
        assert (
            walk.rng.bit_generator.state
            == reference_rng.bit_generator.state
        )


@settings(
    deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["city-grid", "ring-of-grids", "loops", "no-loops"]),
    composition=st.sampled_from(sorted(COMPOSITIONS)),
    topology_seed=st.integers(0, 50),
    seed=st.integers(0, 2**16),
    near_barrier=st.booleans(),
)
def test_support_norm_is_the_dense_norm(
    kind, composition, topology_seed, seed, near_barrier
):
    cost = _cost(kind, topology_seed, composition)
    state = _state(cost, seed, near_barrier)
    _, norm = cost.gradient_values(state, norm=True)
    dense = frobenius_norm(oracle.total_derivative(state, cost.terms))
    assert abs(norm - dense) <= 1e-12 * dense


def _sparse_walk(options, size=256):
    cost = CoverageCost(
        scalable_topology("city-grid", size),
        CostWeights(alpha=1.0, beta=1e-3), linalg="sparse",
    )
    walk = PerturbedWalk(
        cost, paper_random_matrix(size, seed=2, support=cost.support), 3,
        options,
    )
    advance_walk(cost, walk, options)  # warm caches and the template
    return cost, walk


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_iteration_allocates_less_than_three_dense_buffers():
    size = 256
    options = PerturbedOptions()
    cost, walk = _sparse_walk(options, size)
    peak = _peak_bytes(lambda: advance_walk(cost, walk, options))
    assert walk.iteration == 2
    assert peak < 3 * size * size * 8


def test_sparse_evaluate_builds_no_dense_buffer():
    # The coverage shares' total sums support values, not a padded
    # (M, M) matrix.
    size = 256
    cost, walk = _sparse_walk(PerturbedOptions(), size)
    peak = _peak_bytes(lambda: cost.evaluate(walk.state))
    assert peak < 0.25 * size * size * 8


@pytest.mark.parametrize(
    "options", [PerturbedOptions(), AdaptiveOptions()],
    ids=["perturbed", "adaptive"],
)
def test_sparse_begin_iteration_builds_no_dense_buffer(options):
    size = 256
    _, walk = _sparse_walk(options, size)
    peak = _peak_bytes(walk.begin_iteration)
    assert walk.iteration == 2
    assert peak < 0.25 * size * size * 8


@pytest.mark.parametrize("layout", ["dense", "support"])
def test_noise_draw_is_the_normal_draw(layout):
    if layout == "dense":
        cost = CoverageCost(paper_topology(2), CostWeights(alpha=1.0))
    else:
        cost = _cost("city-grid", 0, "paper")
    state = cost.build_state(
        paper_random_matrix(cost.size, seed=4, support=cost.support)
    )
    options = PerturbedOptions()
    walk = PerturbedWalk(cost, state, 8, options)
    walk.begin_iteration()
    rng = np.random.default_rng(8)
    values, norm = cost.gradient_values(state, norm=True)
    draws = cost.size**2 if layout == "dense" else int(cost.support.sum())
    assert values.size == draws
    rms = norm / state.p.size**0.5
    noise = rng.normal(
        0.0, options.sigma * max(rms, 1e-300), size=values.shape
    )
    ray_layout = cost.ray_layout()
    expected = -ray_layout.project(values + noise)
    assert walk._direction.tobytes() == expected.tobytes()
    assert walk.rng.bit_generator.state == rng.bit_generator.state
    # The stream sits exactly ``draws`` normals past the seed.
    skipped = np.random.default_rng(8)
    skipped.standard_normal(draws)
    assert walk.rng.bit_generator.state == skipped.bit_generator.state
