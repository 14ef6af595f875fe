"""The three plugin terms: minimax exposure, k-coverage, periodicity.

Each term gets (a) an analytic-vs-finite-difference gradient check
through the full Schweitzer-adjoint assembly, (b) batch-vs-scalar and
lockstep equivalence on the line-search paths, (c) dense-vs-sparse
agreement, and (d) an optimizer integration run showing the term
actually steers the descent.  The batch-vs-scalar and dense-vs-sparse
checks also take the Section VII energy and entropy terms.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CostWeights,
    CoverageCost,
    KCoverageShortfallTerm,
    PeriodicityTerm,
    WorstExposureTerm,
    optimize,
    scalable_topology,
)
from repro.core.cost import MultiRayBatch, RayBatch
from repro.core.initializers import paper_random_matrix
from tests.conftest import random_zero_rowsum_direction

#: (name, weight, params) triples chosen so every hinge is active on a
#: near-uniform 4-PoI stationary distribution — an inactive hinge would
#: make the finite-difference check trivially 0 == 0.
TERM_CASES = [
    ("minimax", 0.8, {"tau": 4.0}),
    ("kcoverage", 1.5, {"team": 4, "k": 2, "threshold": 0.5}),
    ("periodicity", 0.6, {"slack": 0.5}),
]

#: The batched-path cases: the plugin terms plus the Section VII
#: extensions, which compose through ``CostWeights`` fields instead.
BATCH_CASES = TERM_CASES + [
    ("energy", {"energy_weight": 0.3, "energy_target": 30.0}, None),
    ("entropy", {"entropy_weight": 0.05}, None),
]


@pytest.fixture
def interior_matrix(rng):
    matrix = 0.05 + 0.8 * rng.dirichlet(np.ones(4), size=4)
    return matrix / matrix.sum(axis=1, keepdims=True)


def extra_cost(topology, case, beta=0.5, epsilon=1e-3, linalg="auto"):
    name, weight, params = case
    if params is None:  # a Section VII extension: ``weight`` is kwargs
        return CoverageCost(
            topology,
            CostWeights(alpha=1.0, beta=beta, epsilon=epsilon, **weight),
            linalg=linalg,
        )
    return CoverageCost(
        topology,
        CostWeights(alpha=1.0, beta=beta, epsilon=epsilon),
        linalg=linalg,
        extra_terms=[(name, weight, params)],
    )


class TestGradientFiniteDifference:
    @pytest.mark.parametrize("case", TERM_CASES,
                             ids=[c[0] for c in TERM_CASES])
    def test_dense_total_derivative(
        self, topology1, interior_matrix, rng, case
    ):
        cost = extra_cost(topology1, case)
        direction = random_zero_rowsum_direction(rng, 4)
        analytic = float(
            np.sum(cost.gradient(interior_matrix) * direction)
        )
        h = 1e-6
        numeric = (
            cost.value(interior_matrix + h * direction)
            - cost.value(interior_matrix - h * direction)
        ) / (2 * h)
        assert analytic != 0.0
        assert numeric == pytest.approx(analytic, rel=1e-5)

    @pytest.mark.parametrize("case", TERM_CASES,
                             ids=[c[0] for c in TERM_CASES])
    def test_term_alone_changes_the_gradient(
        self, topology1, interior_matrix, case
    ):
        with_term = extra_cost(topology1, case)
        without = CoverageCost(
            topology1, CostWeights(alpha=1.0, beta=0.5, epsilon=1e-3)
        )
        assert not np.array_equal(
            with_term.gradient(interior_matrix),
            without.gradient(interior_matrix),
        )

    @pytest.mark.parametrize("case", TERM_CASES,
                             ids=[c[0] for c in TERM_CASES])
    def test_sparse_projected_derivative(self, rng, case):
        topology = scalable_topology("city-grid", 64, seed=5)
        name, weight, params = case
        cost = CoverageCost(
            topology, CostWeights(alpha=1.0, beta=1e-3),
            linalg="sparse",
            extra_terms=[(name, weight, params)],
        )
        matrix = paper_random_matrix(64, seed=9, support=cost.support)
        direction = cost.project(rng.normal(size=(64, 64)))
        analytic = float(
            np.sum(cost.projected_gradient(matrix) * direction)
        )
        h = 1e-7
        numeric = (
            cost.value(matrix + h * direction)
            - cost.value(matrix - h * direction)
        ) / (2 * h)
        assert numeric == pytest.approx(analytic, rel=1e-4)


class TestBatchedPaths:
    @pytest.mark.parametrize("case", BATCH_CASES,
                             ids=[c[0] for c in BATCH_CASES])
    def test_batch_matches_scalar(self, topology1, rng, case):
        cost = extra_cost(topology1, case)
        stack = 0.05 + 0.8 * rng.dirichlet(np.ones(4), size=(5, 4))
        stack = stack / stack.sum(axis=2, keepdims=True)
        batched = cost.batch_values(stack)
        scalar = np.array([cost.value(m) for m in stack])
        np.testing.assert_allclose(batched, scalar, rtol=1e-10)

    def test_all_three_compose_in_batch(self, topology1, rng):
        cost = CoverageCost(
            topology1, CostWeights(alpha=1.0, beta=0.5, epsilon=1e-3),
            extra_terms=[
                (name, weight, params)
                for name, weight, params in TERM_CASES
            ],
        )
        stack = 0.05 + 0.8 * rng.dirichlet(np.ones(4), size=(4, 4))
        stack = stack / stack.sum(axis=2, keepdims=True)
        np.testing.assert_allclose(
            cost.batch_values(stack),
            [cost.value(m) for m in stack],
            rtol=1e-10,
        )

    def test_infeasible_probes_stay_inf(self, topology1):
        cost = extra_cost(topology1, TERM_CASES[0])
        bad = np.zeros((1, 4, 4))  # rank-deficient, not stochastic
        values, _, _, ok = cost.batch_evaluate(bad)
        assert not ok[0]
        assert values[0] == np.inf

    def test_lockstep_fusion_matches_single_rays(
        self, topology1, interior_matrix, rng
    ):
        cost = CoverageCost(
            topology1, CostWeights(alpha=1.0, beta=0.5, epsilon=1e-3),
            extra_terms=[
                (name, weight, params)
                for name, weight, params in TERM_CASES
            ],
        )
        directions = [
            random_zero_rowsum_direction(rng, 4) for _ in range(2)
        ]
        steps = np.array([0.0, 1e-4, 2e-4])
        fused = MultiRayBatch.from_directions(
            cost, [(interior_matrix, d) for d in directions]
        )
        fused_values = fused.evaluate([steps, steps])
        for direction, values in zip(directions, fused_values):
            single = RayBatch(cost, interior_matrix, direction)(steps)
            np.testing.assert_array_equal(values, single)

    @pytest.mark.parametrize("case", BATCH_CASES,
                             ids=[c[0] for c in BATCH_CASES])
    def test_sparse_agrees_with_dense(self, case):
        topology = scalable_topology("city-grid", 64, seed=5)
        dense = extra_cost(
            topology, case, beta=1e-3, epsilon=1e-4, linalg="dense"
        )
        sparse = dense.with_linalg("sparse")
        matrix = paper_random_matrix(64, seed=9, support=dense.support)
        assert sparse.value(matrix) == pytest.approx(
            dense.value(matrix), rel=1e-10
        )
        stack = np.stack([matrix, matrix])
        np.testing.assert_allclose(
            sparse.batch_values(stack), dense.batch_values(stack),
            rtol=1e-10,
        )


class TestTermSemantics:
    def test_minimax_bounds_the_true_max(self, topology1,
                                         interior_matrix):
        cost = CoverageCost(
            topology1, CostWeights(),
            extra_terms=[("minimax", 1.0, {"tau": 8.0})],
        )
        state = cost.build_state(interior_matrix)
        exposures = cost.exposure_times(state)
        ((_, value),) = cost.evaluate(state).extra_values
        worst = float(exposures.max())
        assert worst <= value <= worst + np.log(4) / 8.0

    def test_kcoverage_tail_is_a_probability(self):
        term = KCoverageShortfallTerm(weight=1.0, team=4, k=2)
        pi = np.linspace(0.01, 0.99, 25)
        tail = term.tail(pi)
        assert np.all((tail >= 0.0) & (tail <= 1.0))
        assert np.all(np.diff(tail) > 0)  # more presence, more coverage

    def test_kcoverage_vanishes_when_satisfied(self, topology1,
                                               interior_matrix):
        # k=1 with a tiny threshold: every PoI easily k-covered.
        cost = CoverageCost(
            topology1, CostWeights(),
            extra_terms=[("kcoverage", 1.0,
                          {"team": 4, "k": 1, "threshold": 0.1})],
        )
        ((_, value),) = cost.evaluate(interior_matrix).extra_values
        assert value == 0.0

    def test_periodicity_vanishes_with_loose_periods(
        self, topology1, interior_matrix
    ):
        cost = CoverageCost(
            topology1, CostWeights(),
            extra_terms=[("periodicity", 1.0, {"slack": 100.0})],
        )
        ((_, value),) = cost.evaluate(interior_matrix).extra_values
        assert value == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="tau"):
            WorstExposureTerm(weight=1.0, tau=0.0)
        with pytest.raises(ValueError, match="k must lie"):
            KCoverageShortfallTerm(weight=1.0, team=2, k=3)
        with pytest.raises(ValueError, match="threshold"):
            KCoverageShortfallTerm(weight=1.0, threshold=1.5)
        with pytest.raises(ValueError, match="periods"):
            PeriodicityTerm(weight=1.0, periods=np.array([1.0, -2.0]))
        with pytest.raises(ValueError, match="periods"):
            PeriodicityTerm(weight=1.0, periods=np.ones((2, 2)))


class TestOptimizerIntegration:
    @pytest.mark.parametrize("case", TERM_CASES,
                             ids=[c[0] for c in TERM_CASES])
    def test_adaptive_descends_the_composed_objective(
        self, topology1, case
    ):
        cost = extra_cost(topology1, case, beta=0.1)
        baseline = CoverageCost(
            topology1, CostWeights(alpha=1.0, beta=0.1, epsilon=1e-3)
        )
        options = {"max_iterations": 10, "trisection_rounds": 8,
                   "record_history": True}
        result = optimize(
            cost, method="adaptive", seed=0, options=options
        )
        plain = optimize(
            baseline, method="adaptive", seed=0, options=options
        )
        assert np.isfinite(result.best_u_eps)
        # Monotone non-increasing best value along the run.
        best_values = [rec.u_eps for rec in result.history]
        assert result.best_u_eps <= best_values[0]
        # The term changes the objective, so it must steer the descent.
        assert not np.array_equal(result.best_matrix,
                                  plain.best_matrix)

    def test_facade_composes_terms_for_multistart(self, topology1):
        cost = CoverageCost(
            topology1, CostWeights(alpha=1.0, beta=0.1, epsilon=1e-3)
        )
        result = optimize(
            cost, method="multistart", seed=1, random_starts=2,
            options={"max_iterations": 6, "trisection_rounds": 6},
            terms={"periodicity": 0.4},
        )
        assert np.isfinite(result.best.best_u_eps)
