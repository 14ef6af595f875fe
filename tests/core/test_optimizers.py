"""Tests for the descent variants V1-V4 and the multi-start driver.

Budget-conscious: all runs use small iteration counts; correctness
criteria are monotonicity, invariant preservation, and relative
comparisons rather than absolute optima.
"""

import numpy as np
import pytest

from repro import (
    AdaptiveOptions,
    BasicDescentOptions,
    CostWeights,
    CoverageCost,
    PerturbedOptions,
    optimize_adaptive,
    optimize_basic,
    optimize_multistart,
    optimize_perturbed,
    paper_topology,
    uniform_matrix,
)
from repro.core.multistart import default_start_portfolio
from repro.core.perturbed import acceptance_probability
from repro.utils.linalg import is_row_stochastic


@pytest.fixture(scope="module")
def cost():
    return CoverageCost(
        paper_topology(1), CostWeights(alpha=1.0, beta=1.0)
    )


class TestBasic:
    def test_cost_decreases(self, cost):
        result = optimize_basic(
            cost,
            options=BasicDescentOptions(
                step_size=1e-6, max_iterations=50
            ),
        )
        trace = result.cost_trace()
        assert trace[-1] < trace[0]
        assert np.all(np.diff(trace) <= 1e-9)

    def test_final_matrix_stochastic(self, cost):
        result = optimize_basic(
            cost,
            options=BasicDescentOptions(
                step_size=1e-6, max_iterations=30
            ),
        )
        assert is_row_stochastic(result.matrix)

    def test_defaults_to_uniform_start(self, cost):
        result = optimize_basic(
            cost,
            options=BasicDescentOptions(
                step_size=1e-9, max_iterations=1
            ),
        )
        # One tiny step from uniform stays near uniform.
        np.testing.assert_allclose(result.matrix, 0.25, atol=1e-5)

    def test_respects_initial(self, cost):
        initial = np.array([
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],
            [0.1, 0.1, 0.7, 0.1],
            [0.1, 0.1, 0.1, 0.7],
        ])
        result = optimize_basic(
            cost, initial=initial,
            options=BasicDescentOptions(
                step_size=1e-9, max_iterations=1
            ),
        )
        np.testing.assert_allclose(result.matrix, initial, atol=1e-5)

    def test_gradient_tol_stops(self, cost):
        result = optimize_basic(
            cost,
            options=BasicDescentOptions(
                step_size=1e-6, max_iterations=100, gradient_tol=1e9
            ),
        )
        assert result.stop_reason == "gradient_tol"
        assert result.iterations == 0

    def test_history_off(self, cost):
        result = optimize_basic(
            cost,
            options=BasicDescentOptions(
                step_size=1e-6, max_iterations=10, record_history=False
            ),
        )
        assert result.history == []

    @pytest.mark.parametrize("field,value", [
        ("step_size", 0.0),
        ("max_iterations", 0),
        ("patience", 0),
        ("checkpoint_every", -1),
    ])
    def test_option_validation(self, field, value):
        with pytest.raises(ValueError):
            BasicDescentOptions(**{field: value})


class TestAdaptive:
    def test_monotone_decrease(self, cost):
        result = optimize_adaptive(
            cost, seed=0, options=AdaptiveOptions(max_iterations=30,
                                                  trisection_rounds=15)
        )
        trace = result.cost_trace()
        assert np.all(np.diff(trace) <= 1e-9)

    def test_beats_basic_for_same_budget(self, cost):
        iterations = 40
        basic = optimize_basic(
            cost,
            options=BasicDescentOptions(
                step_size=1e-6, max_iterations=iterations
            ),
        )
        adaptive = optimize_adaptive(
            cost, initial=uniform_matrix(4),
            options=AdaptiveOptions(max_iterations=iterations,
                                    trisection_rounds=15),
        )
        assert adaptive.u_eps < basic.u_eps

    def test_local_optimum_stop_reason(self, cost):
        """With enough iterations the line search eventually finds no
        improving step."""
        result = optimize_adaptive(
            cost, seed=1,
            options=AdaptiveOptions(max_iterations=4000,
                                    trisection_rounds=10,
                                    rtol=1e-6),
        )
        assert result.stop_reason in ("local_optimum", "max_iterations")
        if result.stop_reason == "local_optimum":
            assert result.converged

    def test_stochastic_final_matrix(self, cost):
        result = optimize_adaptive(
            cost, seed=2, options=AdaptiveOptions(max_iterations=20,
                                                  trisection_rounds=15)
        )
        assert is_row_stochastic(result.matrix)

    def test_reproducible_given_seed(self, cost):
        kwargs = dict(
            options=AdaptiveOptions(max_iterations=15,
                                    trisection_rounds=12)
        )
        a = optimize_adaptive(cost, seed=7, **kwargs)
        b = optimize_adaptive(cost, seed=7, **kwargs)
        np.testing.assert_allclose(a.matrix, b.matrix)

    def test_option_validation(self):
        with pytest.raises(ValueError):
            AdaptiveOptions(max_iterations=0)
        with pytest.raises(ValueError):
            AdaptiveOptions(trisection_rounds=0)


class TestPerturbed:
    def test_best_never_worse_than_start(self, cost):
        initial = uniform_matrix(4)
        start_value = cost.value(initial)
        result = optimize_perturbed(
            cost, initial=initial, seed=0,
            options=PerturbedOptions(max_iterations=40,
                                     trisection_rounds=12),
        )
        assert result.best_u_eps <= start_value + 1e-12

    def test_best_matrix_matches_best_cost(self, cost):
        result = optimize_perturbed(
            cost, seed=3,
            options=PerturbedOptions(max_iterations=40,
                                     trisection_rounds=12),
        )
        assert cost.value(result.best_matrix) \
            == pytest.approx(result.best_u_eps, rel=1e-9)

    def test_best_is_min_of_history(self, cost):
        result = optimize_perturbed(
            cost, seed=4,
            options=PerturbedOptions(max_iterations=60,
                                     trisection_rounds=12),
        )
        trace = result.cost_trace()
        assert result.best_u_eps <= trace.min() + 1e-12

    def test_reproducible_given_seed(self, cost):
        kwargs = dict(
            options=PerturbedOptions(max_iterations=25,
                                     trisection_rounds=12)
        )
        a = optimize_perturbed(cost, seed=11, **kwargs)
        b = optimize_perturbed(cost, seed=11, **kwargs)
        np.testing.assert_allclose(a.best_matrix, b.best_matrix)
        assert a.best_u_eps == b.best_u_eps

    def test_stall_limit_stops(self, cost):
        result = optimize_perturbed(
            cost, seed=5,
            options=PerturbedOptions(
                max_iterations=5000, trisection_rounds=10, stall_limit=5,
            ),
        )
        assert result.iterations < 5000
        assert result.stop_reason == "stalled"

    def test_zero_sigma_allowed(self, cost):
        result = optimize_perturbed(
            cost, seed=6,
            options=PerturbedOptions(max_iterations=20, sigma=0.0,
                                     trisection_rounds=12),
        )
        assert np.isfinite(result.best_u_eps)

    def test_absolute_noise_mode(self, cost):
        result = optimize_perturbed(
            cost, seed=7,
            options=PerturbedOptions(
                max_iterations=20, sigma=0.1, relative_noise=False,
                trisection_rounds=12,
            ),
        )
        assert np.isfinite(result.best_u_eps)

    @pytest.mark.parametrize("field,value", [
        ("max_iterations", 0),
        ("sigma", -1.0),
        ("cooling_k", 0.0),
        ("stall_limit", 0),
    ])
    def test_option_validation(self, field, value):
        with pytest.raises(ValueError):
            PerturbedOptions(**{field: value})


class TestAcceptanceProbability:
    def test_improvements_always_accepted(self):
        assert acceptance_probability(-0.5, 1.0, 10, 100.0) == 1.0
        assert acceptance_probability(0.0, 1.0, 10, 100.0) == 1.0

    def test_decreases_with_iteration_count(self):
        early = acceptance_probability(0.5, 1.0, 2, 10.0)
        late = acceptance_probability(0.5, 1.0, 10_000, 10.0)
        assert late < early

    def test_decreases_with_worsening(self):
        small = acceptance_probability(0.1, 1.0, 100, 10.0)
        large = acceptance_probability(10.0, 1.0, 100, 10.0)
        assert large < small

    def test_normalization_by_best_cost(self):
        """The same relative worsening gives the same probability."""
        a = acceptance_probability(0.5, 1.0, 50, 10.0)
        b = acceptance_probability(50.0, 100.0, 50, 10.0)
        assert a == pytest.approx(b)

    def test_in_unit_interval(self):
        for worsening in (0.01, 1.0, 100.0):
            p = acceptance_probability(worsening, 1.0, 3, 1.0)
            assert 0.0 <= p <= 1.0


class TestMultiStart:
    def test_best_is_min_over_runs(self, cost):
        result = optimize_multistart(
            cost, random_starts=1, seed=0,
            options=PerturbedOptions(max_iterations=15,
                                     trisection_rounds=10),
        )
        best = min(run.best_u_eps for run in result.runs)
        assert result.best.best_u_eps == best

    def test_labels_match_runs(self, cost):
        result = optimize_multistart(
            cost, random_starts=2, seed=0,
            options=PerturbedOptions(max_iterations=10,
                                     trisection_rounds=10),
        )
        assert len(result.start_labels) == len(result.runs)
        assert result.best_label in result.start_labels

    def test_portfolio_contains_expected_starts(self, cost):
        starts = default_start_portfolio(cost, random_starts=2, seed=0)
        labels = [label for label, _ in starts]
        assert labels[0] == "uniform"
        assert "random-0" in labels and "random-1" in labels
        assert any(label.startswith("damped-") for label in labels)

    def test_damped_starts_respect_barrier(self, cost):
        starts = default_start_portfolio(cost, random_starts=0, seed=0)
        epsilon = cost.weights.epsilon
        for label, matrix in starts:
            if label.startswith("damped-"):
                assert matrix.min() > epsilon
