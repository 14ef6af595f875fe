"""Tests for the experiment harness (tiny parameters, shape checks only).

These verify that every table/figure entry point runs end to end and
exhibits the paper's qualitative shape; the benchmarks run them at full
size.
"""

import numpy as np
import pytest

import repro.experiments as ex
from repro import paper_topology


pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: Tiny budgets so the whole module runs in about a minute.
TINY = dict(iterations=60)


class TestRunner:
    def test_run_many_counts(self):
        from repro.core.cost import CostWeights, CoverageCost
        from repro.experiments.runner import run_many

        cost = CoverageCost(
            paper_topology(1), CostWeights(alpha=0.0, beta=1.0)
        )
        results = run_many(cost, "adaptive", runs=3, iterations=20,
                           seed=0)
        assert len(results) == 3

    def test_run_many_rejects_unknown(self):
        from repro.core.cost import CostWeights, CoverageCost
        from repro.experiments.runner import run_many

        cost = CoverageCost(
            paper_topology(1), CostWeights()
        )
        with pytest.raises(ValueError, match="algorithm"):
            run_many(cost, "nope", 1, 1)

    def test_metric_band(self):
        from repro.experiments.runner import metric_band

        band = metric_band([1.0, 2.0, 3.0, 4.0])
        assert band.mean == pytest.approx(2.5)
        assert band.p25 <= band.mean <= band.p75

    def test_simulate_repeatedly_independent(self):
        from repro.core.initializers import uniform_matrix
        from repro.experiments.runner import simulate_repeatedly

        sims = simulate_repeatedly(
            paper_topology(1), uniform_matrix(4),
            transitions=500, repetitions=3, seed=0,
        )
        totals = {s.total_time for s in sims}
        assert len(totals) == 3


class TestTables:
    def test_sweep_and_tables12(self):
        sweep = ex.run_weight_sweep(
            ratios=((1.0, 1.0), (1.0, 1e-4), (1.0, 0.0)),
            iterations=60, random_starts=1, seed=0,
        )
        table_1 = ex.table1(sweep=sweep)
        table_2 = ex.table2(sweep=sweep)
        assert len(table_1.rows) == 4  # 3 ratios + target row
        assert len(table_2.rows) == 3
        # Qualitative shape: smaller beta -> coverage closer to target.
        topology = paper_topology(3)
        phi = topology.target_shares
        error_first = np.abs(
            np.array(table_1.rows[0][1:]) - phi
        ).max()
        error_last = np.abs(
            np.array(table_1.rows[2][1:]) - phi
        ).max()
        assert error_last < error_first
        # Exposure grows as beta shrinks.
        assert max(table_2.rows[2][1:]) > max(table_2.rows[0][1:])
        table_1.render()

    def test_table3_shape(self):
        result = ex.table3(runs=4, iterations=60, seed=1)
        assert [row[0] for row in result.rows] \
            == ["adaptive", "perturbed"]
        adaptive_row, perturbed_row = result.rows
        # min <= average <= max for both algorithms.
        for row in result.rows:
            assert row[1] <= row[3] <= row[2]
        # Perturbed is at least as good on average.
        assert perturbed_row[3] <= adaptive_row[3] + 1e-9
        result.render()

    def test_table4_shape(self):
        result = ex.table4(
            ratios=((1.0, 1.0), (1.0, 0.0)),
            iterations=60, transitions=4000, repetitions=2, seed=0,
        )
        assert len(result.rows) == 2
        both_row, coverage_row = result.rows
        # Fast-moving schedules (beta=1) simulate accurately even at a
        # short horizon.
        assert both_row[2] == pytest.approx(both_row[1], rel=0.5,
                                            abs=0.5)
        assert both_row[4] == pytest.approx(both_row[3], rel=0.3)
        # The beta=0 optimum moves rarely: computed dC is the smallest
        # and computed E-bar the largest of the sweep (its simulated
        # values need paper-scale horizons to converge).
        assert coverage_row[1] < both_row[1]
        assert coverage_row[3] > both_row[3]
        result.render()


class TestFigures:
    def test_figure2_cdf_monotone(self):
        figure = ex.figure2a(runs=4, iterations=50, seed=0)
        for series in figure.series:
            assert np.all(np.diff(series.y) >= 0)
            assert series.y[-1] == pytest.approx(1.0)
        assert 0.0 <= figure.raw["adaptive_trapped_fraction"] <= 1.0
        figure.render()

    def test_figure2b_runs(self):
        figure = ex.figure2b(runs=3, iterations=40, seed=0)
        assert {s.label for s in figure.series} \
            == {"adaptive", "perturbed"}

    def test_figure3_series_count(self):
        figure = ex.figure3(iterations=150, step=1e-5)
        assert len(figure.series) == 3
        for series in figure.series:
            assert series.y.size == 150

    def test_figure4_decreases(self):
        figure = ex.figure4(iterations=300, step=1e-5)
        trace = figure.series[0].y
        assert trace[-1] < trace[0]

    def test_figure5a_decreases(self):
        figure = ex.figure5a(iterations=300, step=1e-5)
        trace = figure.series[0].y
        assert trace[-1] < trace[0]

    def test_figure5b_converges_across_seeds(self):
        figure = ex.figure5b(seeds=2, iterations=80, seed=0)
        finals = figure.raw["finals"]
        assert len(finals) == 2
        # Envelopes are non-increasing.
        for series in figure.series:
            assert np.all(np.diff(series.y) <= 1e-12)

    def test_figure6_sim_tracks_computed(self):
        figure = ex.figure6(
            iterations=200, step=1e-5, transitions=4000,
            repetitions=2, checkpoints=3, seed=0,
        )
        by_label = {s.label: s for s in figure.series}
        computed = by_label["dC computed"].y
        simulated = by_label["dC simulated"].y
        np.testing.assert_allclose(simulated, computed, rtol=0.3)

    def test_figure8_includes_cost_series(self):
        figure = ex.figure8(
            iterations=200, step=1e-5, transitions=4000,
            repetitions=2, checkpoints=3, seed=0,
        )
        labels = {s.label for s in figure.series}
        assert "U computed" in labels and "U simulated" in labels


class TestAblationsAndExtensions:
    def test_ablation_step_size(self):
        result = ex.ablation_step_size(
            step_sizes=(1e-5, 1e-4), iterations=60, seed=0
        )
        assert len(result.rows) == 3
        adaptive_cost = result.rows[-1][1]
        assert adaptive_cost <= min(row[1] for row in result.rows[:-1])

    def test_ablation_noise(self):
        result = ex.ablation_noise(
            sigmas=(0.0, 0.5), cooling_ks=(10_000.0,), runs=2,
            iterations=40, seed=0,
        )
        assert len(result.rows) == 2

    def test_ablation_epsilon(self):
        result = ex.ablation_epsilon(
            epsilons=(1e-2, 1e-4), iterations=60, seed=0
        )
        # Smaller epsilon admits smaller minimum entries.
        assert result.rows[1][3] <= result.rows[0][3] + 1e-9

    def test_extension_energy(self):
        result = ex.extension_energy(
            gammas=(20.0,), iterations=50, seed=0
        )
        assert len(result.rows) == 2

    def test_extension_entropy_monotone(self):
        result = ex.extension_entropy(
            weights=(0.0, 1.0), iterations=50, seed=0
        )
        h_without, h_with = result.rows[0][1], result.rows[1][1]
        assert h_with >= h_without - 1e-6


class TestBaselineComparison:
    def test_ours_wins_on_u(self):
        result = ex.baseline_comparison(iterations=80, seed=0)
        by_label = {row[0]: row for row in result.rows}
        ours = by_label["steepest descent (ours)"]
        for label, row in by_label.items():
            if label != "steepest descent (ours)":
                assert ours[3] <= row[3] + 1e-9


class TestAblationLinesearch:
    def test_runs_and_reports_both_depths(self):
        result = ex.ablation_linesearch(
            decades=(0, 12), runs=2, iterations=40, seed=0
        )
        assert len(result.rows) == 2
        # Averages agree within a factor of two: the pre-sweep must not
        # hurt (and is typically a wash; see the ablation notes).
        assert result.rows[1][3] <= 2.0 * result.rows[0][3]


class TestExtensionTeam:
    def test_coverage_grows_and_prediction_tracks(self):
        result = ex.extension_team(
            team_sizes=(1, 3), horizon=20_000.0, iterations=40, seed=0
        )
        assert len(result.rows) == 2
        assert result.rows[1][1] > result.rows[0][1]
        for row in result.rows:
            assert row[2] == pytest.approx(row[1], rel=0.2)


class TestExtensionCapture:
    def test_capture_falls_with_beta(self):
        result = ex.extension_capture(
            betas=(1.0, 1e-6), lifetime=60.0, horizon=100_000.0,
            iterations=60, seed=0,
        )
        assert len(result.rows) == 2
        assert result.rows[1][1] < result.rows[0][1]
        # Prediction within a loose band of the measurement.
        for row in result.rows:
            assert row[2] == pytest.approx(row[1], abs=0.25)


class TestAblationOptimizer:
    def test_all_rows_present(self):
        result = ex.ablation_optimizer(
            betas=(1.0,), iterations=40, seed=0
        )
        labels = [row[1] for row in result.rows]
        assert labels == [
            "basic (V1)", "adaptive (V3)", "perturbed (V4)",
            "mirror (ext.)",
        ]


class TestValidation:
    def test_validate_reproduction_passes(self):
        result = ex.validate_reproduction(iterations=80, runs=3, seed=0)
        statuses = [row[1] for row in result.rows]
        # Engine-vs-oracle identity is the oracle matrix's job
        # (tests/simulation/test_engine_equivalence.py), not a criterion.
        assert len(statuses) == 7
        # Every acceptance criterion holds even at the tiny budget.
        assert all(status == "PASS" for status in statuses)

    def test_custom_check_appended(self):
        from repro.experiments.validation import Criterion

        def extra():
            return [Criterion(name="custom", passed=False, detail="x")]

        result = ex.validate_reproduction(
            iterations=40, runs=2, seed=0, checks=[extra]
        )
        assert result.rows[-1][0] == "custom"
        assert result.rows[-1][1] == "FAIL"
