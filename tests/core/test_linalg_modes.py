"""``linalg`` selection: resolve rules, cost plumbing, facade, CLI.

``linalg="auto"`` must stay bit-exact dense at paper scale (no
adjacency mask, small M) and switch to the sparse solvers only for
large support-masked topologies; explicit selections are honored
everywhere the cost travels — facade, CLI, pickled executor workers.
``"sparse"`` needs an adjacency mask: every surface that takes a
``linalg`` refuses it on a topology without one, before any work runs.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import (
    CostWeights,
    CoverageCost,
    optimize,
    optimize_mirror,
    paper_topology,
    scalable_topology,
)
from repro.cli import main
from repro.service import optimize_request
from repro.sweep import SweepGrid, run_sweep
from repro.core.cost import (
    LINALG_MODES,
    SPARSE_AUTO_THRESHOLD,
    resolve_linalg,
)
from repro.core.initializers import paper_random_matrix

WEIGHTS = CostWeights(alpha=1.0, beta=1e-3)


def sparse_cost(size=64, seed=5, linalg="auto"):
    topology = scalable_topology("city-grid", size, seed=seed)
    return CoverageCost(topology, WEIGHTS, linalg=linalg)


class TestResolveLinalg:
    def test_modes_snapshot(self):
        assert LINALG_MODES == ("auto", "dense", "sparse")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="linalg"):
            resolve_linalg("banded", paper_topology(1))

    def test_explicit_selections_honored(self):
        topology = paper_topology(1)
        assert resolve_linalg("dense", topology) == "dense"
        with pytest.raises(ValueError, match="adjacency mask"):
            resolve_linalg("sparse", topology)
        small = scalable_topology("city-grid", 36, seed=1)
        assert small.size < SPARSE_AUTO_THRESHOLD
        assert resolve_linalg("sparse", small) == "sparse"

    def test_auto_stays_dense_without_adjacency(self):
        assert resolve_linalg("auto", paper_topology(1)) == "dense"

    def test_auto_stays_dense_below_threshold(self):
        small = scalable_topology("city-grid", 36, seed=1)
        assert small.size < SPARSE_AUTO_THRESHOLD
        assert resolve_linalg("auto", small) == "dense"

    def test_auto_goes_sparse_at_threshold(self):
        large = scalable_topology(
            "city-grid", SPARSE_AUTO_THRESHOLD, seed=1
        )
        assert resolve_linalg("auto", large) == "sparse"


class TestCostPlumbing:
    def test_resolved_linalg_recorded(self):
        assert sparse_cost(linalg="auto").resolved_linalg == "sparse"
        assert sparse_cost(linalg="dense").resolved_linalg == "dense"
        paper = CoverageCost(paper_topology(1), WEIGHTS)
        assert paper.resolved_linalg == "dense"

    def test_with_linalg_noop_returns_self(self):
        cost = sparse_cost(linalg="sparse")
        assert cost.with_linalg(None) is cost
        assert cost.with_linalg("sparse") is cost

    def test_with_linalg_switches_backend(self):
        cost = sparse_cost(linalg="sparse")
        dense = cost.with_linalg("dense")
        assert dense is not cost
        assert dense.resolved_linalg == "dense"
        assert dense.topology is cost.topology

    def test_sparse_state_evaluates_like_dense(self):
        dense = sparse_cost(linalg="dense")
        sparse = dense.with_linalg("sparse")
        matrix = paper_random_matrix(
            dense.size, seed=9, support=dense.support
        )
        assert sparse.value(matrix) == pytest.approx(
            dense.value(matrix), rel=1e-10
        )
        np.testing.assert_allclose(
            sparse.projected_gradient(sparse.build_state(matrix)),
            dense.projected_gradient(dense.build_state(matrix)),
            rtol=1e-6,
        )

    def test_off_support_probability_rejected(self):
        cost = sparse_cost(linalg="sparse")
        matrix = paper_random_matrix(cost.size, seed=2)  # unmasked
        with pytest.raises(ValueError, match="support"):
            cost.build_state(matrix)

    def test_batch_evaluate_returns_no_z_on_sparse_path(self):
        cost = sparse_cost(linalg="sparse")
        matrix = paper_random_matrix(
            cost.size, seed=3, support=cost.support
        )
        values, pis, zs, ok = cost.batch_evaluate(matrix[None])
        assert zs is None
        assert ok[0]
        assert np.isfinite(values[0])

    def test_sparse_cost_pickles_and_still_works(self):
        cost = sparse_cost(linalg="sparse")
        matrix = paper_random_matrix(
            cost.size, seed=4, support=cost.support
        )
        before = cost.value(matrix)
        clone = pickle.loads(pickle.dumps(cost))
        assert clone.resolved_linalg == "sparse"
        assert clone.value(matrix) == pytest.approx(before, rel=1e-12)


class TestFacade:
    def test_linalg_kwarg_rebinds_cost(self):
        cost = sparse_cost(linalg="dense")
        result = optimize(
            cost, method="perturbed", seed=7, linalg="sparse",
            options={"max_iterations": 5, "stall_limit": 100},
        )
        assert np.isfinite(result.best_u_eps)
        # Off-support mass never appears in the sparse run's matrices.
        assert np.all(result.best_matrix[~cost.support] == 0.0)

    def test_linalg_none_leaves_cost_untouched(self):
        cost = sparse_cost(linalg="dense")
        direct = optimize(
            cost, method="perturbed", seed=7,
            options={"max_iterations": 5, "stall_limit": 100},
        )
        explicit = optimize(
            cost, method="perturbed", seed=7, linalg="dense",
            options={"max_iterations": 5, "stall_limit": 100},
        )
        assert (
            direct.best_matrix.tobytes()
            == explicit.best_matrix.tobytes()
        )

    def test_sparse_without_adjacency_rejected(self):
        cost = CoverageCost(paper_topology(1), WEIGHTS)
        with pytest.raises(ValueError, match="adjacency mask"):
            optimize(cost, method="perturbed", seed=7, linalg="sparse")

    def test_mirror_rejects_support_topologies(self):
        with pytest.raises(ValueError, match="softmax"):
            optimize_mirror(sparse_cost(linalg="sparse"))


class TestSparseNeedsAdjacency:
    """``linalg="sparse"`` on a topology without an adjacency mask is
    refused up front by every surface."""

    def test_cost(self):
        with pytest.raises(ValueError, match="adjacency mask"):
            CoverageCost(paper_topology(1), WEIGHTS, linalg="sparse")

    def test_with_linalg(self):
        cost = CoverageCost(paper_topology(1), WEIGHTS)
        with pytest.raises(ValueError, match="adjacency mask"):
            cost.with_linalg("sparse")

    def test_optimize_request(self):
        with pytest.raises(ValueError, match="adjacency mask"):
            optimize_request(paper_topology(1), linalg="sparse")
        request = optimize_request(
            scalable_topology("city-grid", 36, seed=1), linalg="sparse"
        )
        assert request.params["linalg"] == "sparse"

    def test_run_sweep_fails_before_any_cell(self, tmp_path, monkeypatch):
        import repro.sweep.driver as driver

        def no_executor(*args, **kwargs):
            raise AssertionError("the executor opened")

        monkeypatch.setattr(driver, "get_executor", no_executor)
        grid = SweepGrid(
            topologies=(
                {"family": "city-grid", "sizes": [36]},
                {"family": "paper", "sizes": [1]},
            ),
            weights=({"alpha": 1.0, "beta": 0.01},),
            methods=("adaptive",),
            seeds=(0,),
            iterations=2,
            linalg="sparse",
        )
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match="adjacency mask"):
            run_sweep(grid, out)
        assert not out.exists() or not any(out.iterdir())

    def test_cli_optimize_exits_with_the_message(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["optimize", "--paper", "1", "--linalg", "sparse"])
        assert exit_info.value.code != 0
        assert "adjacency mask" in str(exit_info.value.code)


class TestCli:
    def test_optimize_accepts_linalg_flag(self, capsys):
        assert main([
            "optimize", "--paper", "1", "--algorithm", "perturbed",
            "--iterations", "5", "--linalg", "dense",
        ]) == 0
        assert "U_eps=" in capsys.readouterr().out

    def test_optimize_rejects_unknown_linalg(self):
        with pytest.raises(SystemExit):
            main([
                "optimize", "--paper", "1", "--linalg", "banded",
            ])

    def test_topology_family_flag(self, capsys):
        assert main([
            "topology", "--family", "city-grid", "--size", "36",
            "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "36 PoIs" in out
        assert "sparse support" in out

    def test_family_requires_size(self):
        with pytest.raises(SystemExit):
            main(["topology", "--family", "city-grid"])
