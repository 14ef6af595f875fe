"""Tests for repro.core.cost and repro.core.gradient.

The decisive test is the finite-difference validation of the full
Eq. (10) total derivative along random row-sum-zero directions — it
exercises Schweitzer adjoints, every term partial, and their assembly.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CostWeights, CoverageCost, paper_topology, scalable_topology
from repro.core.gradient import (
    accumulate_partials,
    directional_derivative,
    projected_gradient,
    total_derivative,
)
from repro.core.initializers import paper_random_matrix
from repro.core.state import ChainState
from tests.conftest import random_zero_rowsum_direction


@pytest.fixture
def full_cost(topology1):
    """Cost with every term enabled (coverage, exposure, barrier,
    energy, entropy)."""
    return CoverageCost(
        topology1,
        CostWeights(
            alpha=1.0, beta=0.7, epsilon=1e-3,
            energy_weight=0.02, energy_target=30.0,
            entropy_weight=0.05,
        ),
    )


#: The batch backends the line search runs: name -> (topology, linalg).
BATCH_SETUPS = {
    "dense-unmasked": (lambda: paper_topology(1), "dense"),
    "dense-masked": (
        lambda: scalable_topology("city-grid", 16, seed=5), "dense"
    ),
    "sparse-masked": (
        lambda: scalable_topology("city-grid", 64, seed=5), "sparse"
    ),
}


@functools.lru_cache(maxsize=None)
def batch_setup(name):
    """``(cost, interior)`` for a :data:`BATCH_SETUPS` entry."""
    make_topology, linalg = BATCH_SETUPS[name]
    topology = make_topology()
    cost = CoverageCost(topology, CostWeights(beta=1e-3), linalg=linalg)
    assert cost.resolved_linalg == linalg
    interior = paper_random_matrix(
        topology.size, seed=9, support=cost.support
    )
    return cost, interior


def infeasible_probe(kind, interior, support):
    """``interior`` broken in exactly one way named by ``kind``."""
    size = len(interior)
    allowed = np.ones((size, size), bool) if support is None else support
    legs = np.argwhere(allowed & ~np.eye(size, dtype=bool))
    a, b = legs[0]
    probe = interior.copy()
    if kind == "reducible":
        # Two closed classes {a, b} and {c, d}: pi is not unique.
        c, d = next(leg for leg in legs if not {a, b} & set(leg))
        for i, j in ((a, b), (b, a), (c, d), (d, c)):
            probe[i] = 0.0
            probe[i, j] = 1.0
    elif kind == "negative":
        probe[a, b] = -probe[a, b]
    elif kind == "above-one":
        probe[a, b] = 1.5
    elif kind == "unit-diagonal":
        probe[a] = 0.0
        probe[a, a] = 1.0
    elif kind == "off-support":
        i, j = np.argwhere(~support)[0]
        probe[i, j] = 1e-3
        probe[i, np.argmax(probe[i])] -= 1e-3
    else:
        raise ValueError(kind)
    return probe


def assert_probe_infeasible(setup, kind):
    cost, interior = batch_setup(setup)
    probe = infeasible_probe(kind, interior, cost.support)
    values, _, _, ok = cost.batch_evaluate(np.stack([interior, probe]))
    assert ok[0] and np.isfinite(values[0])
    assert not ok[1]
    assert values[1] == np.inf


@pytest.fixture
def interior_matrix(rng):
    matrix = 0.05 + 0.8 * rng.dirichlet(np.ones(4), size=4)
    return matrix / matrix.sum(axis=1, keepdims=True)


class TestCostWeights:
    def test_defaults(self):
        weights = CostWeights()
        assert weights.alpha == 1.0
        assert weights.epsilon == 1e-4

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, -1.0])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            CostWeights(epsilon=epsilon)

    def test_rejects_negative_extension_weights(self):
        with pytest.raises(ValueError, match="extension"):
            CostWeights(energy_weight=-1.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            CostWeights().alpha = 2.0


class TestEvaluate:
    def test_breakdown_consistency(self, full_cost, interior_matrix):
        b = full_cost.evaluate(interior_matrix)
        assert b.u_eps == pytest.approx(b.u + b.penalty_value)
        assert b.u == pytest.approx(
            b.coverage_value + b.exposure_value
            + b.energy_value + b.entropy_value
        )
        assert b.coverage_shares.shape == (4,)
        assert b.exposure_times.shape == (4,)

    def test_value_equals_breakdown(self, full_cost, interior_matrix):
        assert full_cost.value(interior_matrix) == pytest.approx(
            full_cost.evaluate(interior_matrix).u_eps
        )

    def test_eq14_identity(self, topology1, interior_matrix):
        """U = alpha/2 dC + beta/2 E^2 with scalar weights (Eq. 14)."""
        alpha, beta = 0.8, 0.3
        cost = CoverageCost(
            topology1, CostWeights(alpha=alpha, beta=beta)
        )
        b = cost.evaluate(interior_matrix)
        assert b.u == pytest.approx(
            0.5 * alpha * b.delta_c + 0.5 * beta * b.e_bar**2
        )

    def test_accepts_state_or_matrix(self, full_cost, interior_matrix):
        state = ChainState.from_matrix(interior_matrix)
        assert full_cost.value(state) \
            == pytest.approx(full_cost.value(interior_matrix))

    def test_coverage_shares_eq2(self, topology1, interior_matrix):
        """C-bar_i = sum pi p T_{jk,i} / sum pi p T_jk."""
        cost = CoverageCost(topology1, CostWeights())
        state = ChainState.from_matrix(interior_matrix)
        shares = cost.coverage_shares(state)
        passby, travel = topology1.passby, topology1.travel_times
        denominator = sum(
            state.pi[j] * state.p[j, k] * travel[j, k]
            for j in range(4) for k in range(4)
        )
        for i in range(4):
            numerator = sum(
                state.pi[j] * state.p[j, k] * passby[j, k, i]
                for j in range(4) for k in range(4)
            )
            assert shares[i] == pytest.approx(numerator / denominator)

    def test_e_bar_eq13(self, full_cost, interior_matrix):
        exposures = full_cost.exposure_times(interior_matrix)
        assert full_cost.e_bar(interior_matrix) == pytest.approx(
            float(np.sqrt(np.sum(exposures**2)))
        )

    def test_delta_c_nonnegative(self, full_cost, interior_matrix):
        assert full_cost.delta_c(interior_matrix) >= 0.0

    def test_identity_minus_uniform_shares_sum_below_one(
        self, full_cost, interior_matrix
    ):
        """Travel time is partly uncovered, so shares sum to < 1."""
        shares = full_cost.coverage_shares(interior_matrix)
        assert shares.sum() < 1.0


class TestGradient:
    def test_matches_finite_difference(
        self, full_cost, interior_matrix, rng
    ):
        state = ChainState.from_matrix(interior_matrix)
        h = 1e-7
        for _ in range(5):
            direction = random_zero_rowsum_direction(rng, 4)
            numeric = (
                full_cost.value(interior_matrix + h * direction)
                - full_cost.value(interior_matrix - h * direction)
            ) / (2 * h)
            analytic = directional_derivative(
                state, full_cost.terms, direction
            )
            assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-8)

    def test_projected_gradient_rows_sum_zero(
        self, full_cost, interior_matrix
    ):
        projected = full_cost.projected_gradient(interior_matrix)
        np.testing.assert_allclose(
            projected.sum(axis=1), 0.0, atol=1e-10
        )

    def test_descent_direction_decreases_cost(
        self, full_cost, interior_matrix
    ):
        direction = full_cost.descent_direction(interior_matrix)
        baseline = full_cost.value(interior_matrix)
        stepped = full_cost.value(interior_matrix + 1e-7 * direction)
        assert stepped < baseline

    def test_accumulate_skips_missing(self, full_cost, interior_matrix):
        state = ChainState.from_matrix(interior_matrix)
        grad_pi, grad_z, grad_p = accumulate_partials(
            state, [full_cost._penalty]
        )
        assert grad_pi is None
        assert grad_z is None
        assert grad_p is not None

    def test_total_derivative_zero_terms(self, interior_matrix):
        state = ChainState.from_matrix(interior_matrix)
        np.testing.assert_array_equal(
            total_derivative(state, []), np.zeros((4, 4))
        )

    def test_projected_matches_manual(self, full_cost, interior_matrix):
        state = ChainState.from_matrix(interior_matrix)
        total = total_derivative(state, full_cost.terms)
        manual = total - total.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(
            projected_gradient(state, full_cost.terms), manual,
            atol=1e-12,
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_gradient_check(self, seed):
        rng = np.random.default_rng(seed)
        topology = paper_topology(1)
        cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1.0))
        matrix = 0.05 + 0.8 * rng.dirichlet(np.ones(4), size=4)
        matrix /= matrix.sum(axis=1, keepdims=True)
        state = ChainState.from_matrix(matrix)
        direction = random_zero_rowsum_direction(rng, 4)
        h = 1e-7
        numeric = (
            cost.value(matrix + h * direction)
            - cost.value(matrix - h * direction)
        ) / (2 * h)
        analytic = directional_derivative(state, cost.terms, direction)
        assert numeric == pytest.approx(analytic, rel=1e-4, abs=1e-7)


class TestEvaluateFold:
    @pytest.mark.parametrize("weights, terms", [
        (CostWeights(), ()),
        (CostWeights(energy_weight=0.3), ()),
        (CostWeights(), {"minimax": 0.5}),
    ], ids=["paper", "energy", "minimax"])
    def test_u_eps_is_value_bit_for_bit(self, weights, terms):
        for number in (1, 2, 3, 4):
            topology = paper_topology(number)
            cost = CoverageCost(topology, weights, extra_terms=terms)
            rng = np.random.default_rng(number)
            for _ in range(50):
                # Concentrated rows put entries inside the barrier band,
                # so the penalty's place in the fold matters.
                matrix = rng.dirichlet(
                    np.full(topology.size, 0.2), size=topology.size
                )
                state = cost.build_state(matrix)
                assert cost.evaluate(state).u_eps == cost.value(state)


class TestBatchValues:
    def test_matches_scalar_path(self, full_cost, rng):
        stack = np.array(
            [rng.dirichlet(np.ones(4), size=4) for _ in range(20)]
        )
        batch = full_cost.batch_values(stack)
        scalar = np.array([full_cost.value(m) for m in stack])
        np.testing.assert_allclose(batch, scalar, rtol=1e-10)

    def test_barrier_band_entries_match(self, topology1, rng):
        cost = CoverageCost(
            topology1, CostWeights(alpha=1.0, beta=1.0, epsilon=1e-2)
        )
        matrix = np.array([
            [0.995, 0.002, 0.002, 0.001],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
        ])
        batch = cost.batch_values(matrix[None])
        assert batch[0] == pytest.approx(cost.value(matrix), rel=1e-10)

    @pytest.mark.parametrize("setup, kind", [
        (setup, kind)
        for setup in BATCH_SETUPS
        for kind in ("reducible", "above-one", "unit-diagonal",
                     "off-support")
        if kind != "off-support" or setup != "dense-unmasked"
    ])
    def test_infeasible_maps_to_inf(self, setup, kind):
        assert_probe_infeasible(setup, kind)

    @pytest.mark.parametrize("setup", list(BATCH_SETUPS))
    def test_negative_entries_map_to_inf(self, setup):
        assert_probe_infeasible(setup, "negative")

    def test_empty_stack(self, full_cost):
        assert full_cost.batch_values(
            np.zeros((0, 4, 4))
        ).shape == (0,)

    def test_rejects_wrong_shape(self, full_cost):
        with pytest.raises(ValueError, match="stack"):
            full_cost.batch_values(np.zeros((2, 3, 3)))

    def test_ray_batch(self, full_cost, interior_matrix):
        direction = full_cost.descent_direction(interior_matrix)
        ray = full_cost.ray_batch(interior_matrix, direction)
        steps = np.array([0.0, 1e-6, 1e-5])
        values = ray(steps)
        assert values[0] == pytest.approx(
            full_cost.value(interior_matrix)
        )
        assert values[1] < values[0]
