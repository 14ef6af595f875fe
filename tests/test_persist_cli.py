"""Tests for repro.persist and the command-line interface."""

import json

import numpy as np
import pytest

from repro import (
    SimulationOptions,
    paper_topology,
    simulate_schedule,
    uniform_matrix,
)
from repro.cli import EXPERIMENTS, build_parser, main
from repro.core.result import OptimizationResult
from repro.persist import (
    load_matrix,
    load_topology,
    result_to_dict,
    save_matrix,
    save_result,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)


class TestTopologyRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        original = paper_topology(3)
        path = tmp_path / "topo.json"
        save_topology(original, path)
        loaded = load_topology(path)
        assert loaded.name == original.name
        np.testing.assert_allclose(
            loaded.target_shares, original.target_shares
        )
        np.testing.assert_allclose(
            loaded.travel_times, original.travel_times
        )
        np.testing.assert_allclose(loaded.passby, original.passby)

    def test_dict_schema_checked(self):
        with pytest.raises(ValueError, match="schema"):
            topology_from_dict({"schema": "wrong"})

    def test_dict_contains_schema(self):
        data = topology_to_dict(paper_topology(1))
        assert data["schema"] == "repro/topology/v1"

    def test_defaults_applied(self):
        data = topology_to_dict(paper_topology(1))
        del data["speed"], data["pause_times"]
        loaded = topology_from_dict(data)
        assert loaded.speed == 10.0


class TestMatrixRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        matrix = np.random.default_rng(0).dirichlet(np.ones(4), size=4)
        path = tmp_path / "m.json"
        save_matrix(matrix, path)
        np.testing.assert_array_equal(load_matrix(path), matrix)

    def test_rejects_non_square_save(self, tmp_path):
        with pytest.raises(ValueError, match="square"):
            save_matrix(np.ones((2, 3)), tmp_path / "m.json")

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema": "nope", "matrix": []}))
        with pytest.raises(ValueError, match="schema"):
            load_matrix(path)


class TestResultSerialization:
    def test_result_to_dict(self, tmp_path):
        result = OptimizationResult(
            matrix=uniform_matrix(3), u_eps=1.5, u=1.4, delta_c=0.5,
            e_bar=2.0, iterations=10, converged=True,
            stop_reason="stalled",
        )
        data = result_to_dict(result)
        assert data["u_eps"] == 1.5
        assert data["stop_reason"] == "stalled"
        path = tmp_path / "r.json"
        save_result(result, path)
        restored = json.loads(path.read_text())
        assert restored["best_u_eps"] == 1.5


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["topology", "--paper", "1"])
        assert args.command == "topology"

    def test_experiment_registry_complete(self):
        for name in ("table1", "table3", "figure2a", "figure8",
                     "baselines"):
            assert name in EXPERIMENTS

    def test_topology_command(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        code = main(["topology", "--paper", "1", "--save", str(path)])
        assert code == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "4 PoIs" in out

    def test_topology_grid(self, capsys):
        assert main(["topology", "--grid", "2", "2"]) == 0
        assert "grid-2x2" in capsys.readouterr().out

    def test_topology_requires_source(self):
        with pytest.raises(SystemExit):
            main(["topology"])

    def test_optimize_and_simulate_pipeline(self, tmp_path, capsys):
        topo = tmp_path / "t.json"
        matrix = tmp_path / "p.json"
        result = tmp_path / "r.json"
        assert main(
            ["topology", "--paper", "1", "--save", str(topo)]
        ) == 0
        assert main([
            "optimize", "--topology", str(topo),
            "--alpha", "1", "--beta", "1",
            "--algorithm", "perturbed", "--iterations", "20",
            "--save-matrix", str(matrix),
            "--save-result", str(result),
        ]) == 0
        assert matrix.exists() and result.exists()
        capsys.readouterr()  # drain the topology/optimize output
        assert main([
            "simulate", "--topology", str(topo),
            "--matrix", str(matrix),
            "--transitions", "1000", "--warmup", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "coverage shares" in out
        direct = simulate_schedule(
            load_topology(topo), load_matrix(matrix), transitions=1000,
            seed=0, options=SimulationOptions(warmup=50),
        )
        assert direct.summary() in out

    def test_optimize_basic_algorithm(self, capsys):
        assert main([
            "optimize", "--paper", "1", "--algorithm", "basic",
            "--iterations", "10", "--step-size", "1e-6",
        ]) == 0
        assert "U_eps=" in capsys.readouterr().out

    def test_optimize_requires_topology(self):
        with pytest.raises(SystemExit):
            main(["optimize", "--alpha", "1"])

    def test_experiment_command(self, capsys, monkeypatch):
        # Patch in a tiny experiment so the test stays fast.
        from repro import cli

        def fake(seed=None):
            from repro.experiments.reporting import TableResult

            return TableResult(
                experiment_id="T", title="t", columns=["c"], rows=[[1]]
            )

        monkeypatch.setitem(cli.EXPERIMENTS, "table1", fake)
        assert main(["experiment", "table1"]) == 0
        assert "T" in capsys.readouterr().out

    def test_tradeoff_command(self, capsys):
        assert main([
            "tradeoff", "--paper", "1", "--points", "2",
            "--iterations", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "pareto" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "not-a-thing"])


class TestCliTeam:
    def test_team_command(self, tmp_path, capsys):
        topo = tmp_path / "t.json"
        matrix = tmp_path / "p.json"
        assert main(["topology", "--paper", "1", "--save", str(topo)]) == 0
        assert main([
            "optimize", "--topology", str(topo), "--iterations", "15",
            "--save-matrix", str(matrix),
        ]) == 0
        assert main([
            "team", "--topology", str(topo), "--matrix", str(matrix),
            "--sensors", "2", "--horizon", "5000",
        ]) == 0
        out = capsys.readouterr().out
        assert "union coverage" in out

    @pytest.mark.parametrize("command", ["simulate", "team", "experiment"])
    def test_engine_flag_rejected(self, command):
        """Each kind has one simulator, so no command takes --engine."""
        args = {
            "simulate": ["simulate", "--paper", "1", "--matrix", "p.json"],
            "team": ["team", "--paper", "1", "--matrix", "p.json"],
            "experiment": ["experiment", "table4"],
        }[command]
        with pytest.raises(SystemExit):
            build_parser().parse_args(args + ["--engine", "loop"])


class TestCliParallel:
    def test_parallel_flags_parse(self):
        parser = build_parser()
        for argv in (
            ["optimize", "--paper", "1", "--jobs", "4"],
            ["experiment", "table1", "--jobs", "2",
             "--backend", "thread"],
            ["tradeoff", "--paper", "1", "--backend", "serial"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "jobs")
            assert hasattr(args, "backend")

    def test_executor_spec_defaults(self):
        from repro.cli import _executor_spec

        parser = build_parser()

        def spec(*extra):
            return _executor_spec(
                parser.parse_args(["experiment", "table1", *extra])
            )

        assert spec() == ("serial", None, None)
        assert spec("--jobs", "1") == ("serial", 1, None)
        assert spec("--jobs", "4") == ("process", 4, None)
        assert spec("--jobs", "4", "--backend", "thread") == (
            "thread", 4, None
        )
        assert spec("--jobs", "4", "--transport", "shm") == (
            "process", 4, "shm"
        )

    def test_jobs_flag_installs_default_executor(self, monkeypatch):
        from repro import cli
        from repro.exec import ThreadExecutor, default_executor

        seen = {}

        def fake(seed=None):
            from repro.experiments.reporting import TableResult

            seen["executor"] = default_executor()
            return TableResult(
                experiment_id="T", title="t", columns=["c"], rows=[[1]]
            )

        monkeypatch.setitem(cli.EXPERIMENTS, "table1", fake)
        assert main([
            "experiment", "table1", "--jobs", "2", "--backend", "thread",
        ]) == 0
        assert isinstance(seen["executor"], ThreadExecutor)
        assert seen["executor"].jobs == 2

    def test_optimize_multistart_with_jobs(self, capsys):
        assert main([
            "optimize", "--paper", "1", "--algorithm", "multistart",
            "--iterations", "5", "--jobs", "2", "--backend", "thread",
        ]) == 0
        assert "U_eps=" in capsys.readouterr().out


class TestCliService:
    def test_submit_computes_then_hits_cache(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = [
            "submit", "--store", store, "--paper", "1",
            "--iterations", "8", "--seed", "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "fresh computation" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "served from cache" in second
        # the result lines are identical either way
        strip = lambda out: [l for l in out.splitlines()
                             if l.startswith("  ")]
        assert strip(first) == strip(second)

    def test_submit_saves_matrix(self, tmp_path, capsys):
        matrix_path = tmp_path / "P.json"
        assert main([
            "submit", "--store", str(tmp_path / "store"),
            "--paper", "1", "--iterations", "5",
            "--save-matrix", str(matrix_path),
        ]) == 0
        matrix = load_matrix(matrix_path)
        assert matrix.shape == (4, 4)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_submit_request_file(self, tmp_path, capsys):
        from repro import metropolis_hastings_matrix
        from repro.service import request_to_dict, simulation_request

        topology = paper_topology(1)
        matrix = metropolis_hastings_matrix(topology.target_shares)
        request_path = tmp_path / "req.json"
        request_path.write_text(json.dumps(request_to_dict(
            simulation_request(topology, matrix, transitions=100,
                               seed=1)
        )))
        assert main([
            "submit", "--store", str(tmp_path / "store"),
            "--request", str(request_path),
        ]) == 0
        assert "[simulate]" in capsys.readouterr().out

    def test_serve_spool_roundtrip(self, tmp_path, capsys):
        from repro import metropolis_hastings_matrix
        from repro.persist import verify_service_record
        from repro.service import request_to_dict, simulation_request

        topology = paper_topology(1)
        matrix = metropolis_hastings_matrix(topology.target_shares)
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "job.json").write_text(json.dumps(request_to_dict(
            simulation_request(topology, matrix, transitions=100,
                               seed=1)
        )))
        store = str(tmp_path / "store")
        assert main(["serve", "--store", store, "--spool",
                     str(spool)]) == 0
        out = capsys.readouterr().out
        assert "answered 1 request(s)" in out
        record = json.loads((spool / "job.result.json").read_text())
        assert verify_service_record(record)
        # idempotent second pass
        assert main(["serve", "--store", store, "--spool",
                     str(spool)]) == 0
        assert "answered 0 request(s)" in capsys.readouterr().out

    def test_serve_requires_work(self, tmp_path):
        with pytest.raises(SystemExit, match="spool"):
            main(["serve", "--store", str(tmp_path / "store")])

    def test_serve_import_sweep(self, tmp_path, capsys):
        from repro.sweep import SweepGrid, run_sweep

        out = tmp_path / "sweep"
        grid = SweepGrid(
            topologies=({"family": "paper", "sizes": [1]},),
            weights=({"alpha": 1.0, "beta": 1.0},),
            methods=("perturbed",), seeds=(0,), iterations=5,
            include_matrix=True,
        )
        run_sweep(grid, out)
        assert main([
            "serve", "--store", str(tmp_path / "store"),
            "--import-sweep", str(out),
        ]) == 0
        assert "imported 1 sweep record(s)" in capsys.readouterr().out
