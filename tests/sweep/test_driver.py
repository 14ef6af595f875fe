"""Sweep driver: dedup, sharding, kill-and-resume bit-identity,
standalone-cell bit-identity, and process-backend shm reuse."""

import json

import numpy as np
import pytest

from repro.core.api import optimize
from repro.core.cost import CostWeights, CoverageCost
from repro.sweep import (
    SweepGrid,
    build_topology,
    cell_digest,
    dedup_cells,
    iter_sweep_records,
    merge_shards,
    plan_shards,
    run_cell,
    run_sweep,
    topology_key,
)

ITERATIONS = 4


def _grid(**overrides):
    base = dict(
        topologies=({"family": "paper", "sizes": [1, 2]},),
        weights=({"alpha": 1.0, "beta": 0.01},
                 {"alpha": 1.0, "beta": 0.5}),
        methods=("adaptive",),
        seeds=(0, 1),
        iterations=ITERATIONS,
    )
    base.update(overrides)
    return SweepGrid(**base)


def _merged_bytes(out_dir, target):
    merge_shards(out_dir, target)
    return target.read_bytes()


class TestDedupAndPlanning:
    def test_dedup_collapses_identical_cells(self):
        grid = _grid(topologies=(
            {"family": "paper", "sizes": [1]},
            {"family": "paper", "sizes": [1]},
        ))
        unique, dropped = dedup_cells(grid.expand())
        assert dropped == len(unique)
        assert len({d for d, _ in unique}) == len(unique)

    def test_plan_keeps_topology_groups_intact(self):
        unique, _ = dedup_cells(_grid().expand())
        queues = plan_shards(unique, 2)
        for queue in queues:
            keys = [topology_key(c) for _, c in queue]
            # consecutive runs of equal keys: each key appears in one
            # contiguous block on one queue
            seen = set()
            previous = None
            for key in keys:
                if key != previous:
                    assert key not in seen
                    seen.add(key)
                previous = key
        assert sum(len(q) for q in queues) == len(unique)

    def test_plan_is_deterministic_and_balanced(self):
        unique, _ = dedup_cells(_grid().expand())
        first = plan_shards(unique, 2)
        second = plan_shards(unique, 2)
        assert first == second
        sizes = sorted(len(q) for q in first)
        assert sizes == [4, 4]

    def test_more_shards_than_groups_leaves_empties(self):
        unique, _ = dedup_cells(_grid().expand())
        queues = plan_shards(unique, 8)
        assert sum(len(q) for q in queues) == len(unique)
        assert sum(1 for q in queues if q) == 2  # one per topology


class TestSerialSweep:
    def test_full_sweep_writes_every_cell(self, tmp_path):
        report = run_sweep(_grid(), tmp_path / "out", shards=2)
        assert report.ran_cells == report.unique_cells == 8
        assert not report.interrupted
        digests = [r["digest"] for r in
                   iter_sweep_records(tmp_path / "out")]
        assert sorted(digests) == sorted(
            d for d, _ in dedup_cells(_grid().expand())[0]
        )

    def test_fresh_dir_without_resume_flag_is_fine(self, tmp_path):
        report = run_sweep(_grid(), tmp_path / "new", shards=1)
        assert report.records == 8

    def test_existing_dir_requires_resume(self, tmp_path):
        run_sweep(_grid(), tmp_path / "out")
        with pytest.raises(ValueError, match="resume=True"):
            run_sweep(_grid(), tmp_path / "out")

    def test_resume_of_complete_sweep_is_noop(self, tmp_path):
        run_sweep(_grid(), tmp_path / "out")
        before = _merged_bytes(tmp_path / "out", tmp_path / "m1.jsonl")
        report = run_sweep(_grid(), tmp_path / "out", resume=True)
        assert report.ran_cells == 0
        assert report.skipped_cells == 8
        after = _merged_bytes(tmp_path / "out", tmp_path / "m2.jsonl")
        assert before == after

    def test_kill_and_resume_matches_uninterrupted_bit_for_bit(
        self, tmp_path
    ):
        grid = _grid()
        run_sweep(grid, tmp_path / "full", shards=2)
        partial = run_sweep(
            grid, tmp_path / "killed", shards=2, max_cells=3
        )
        assert partial.interrupted and partial.ran_cells == 3
        resumed = run_sweep(
            grid, tmp_path / "killed", shards=2, resume=True
        )
        assert resumed.skipped_cells == 3
        assert resumed.ran_cells == 5
        assert not resumed.interrupted
        assert (
            _merged_bytes(tmp_path / "full", tmp_path / "a.jsonl")
            == _merged_bytes(tmp_path / "killed", tmp_path / "b.jsonl")
        )

    def test_resume_tolerates_partial_trailing_write(self, tmp_path):
        grid = _grid()
        run_sweep(grid, tmp_path / "full")
        run_sweep(grid, tmp_path / "killed", max_cells=3)
        shard = tmp_path / "killed" / "shard-000.jsonl"
        with open(shard, "ab") as handle:
            handle.write(b'{"digest": "torn-mid-record')
        run_sweep(grid, tmp_path / "killed", resume=True)
        assert (
            _merged_bytes(tmp_path / "full", tmp_path / "a.jsonl")
            == _merged_bytes(tmp_path / "killed", tmp_path / "b.jsonl")
        )

    def test_no_duplicate_digests_after_resume(self, tmp_path):
        grid = _grid()
        run_sweep(grid, tmp_path / "out", shards=2, max_cells=5)
        run_sweep(grid, tmp_path / "out", shards=2, resume=True)
        digests = [r["digest"] for r in
                   iter_sweep_records(tmp_path / "out")]
        assert len(digests) == len(set(digests)) == 8

    def test_reshard_on_resume_still_bit_identical(self, tmp_path):
        grid = _grid()
        run_sweep(grid, tmp_path / "full", shards=1)
        run_sweep(grid, tmp_path / "killed", shards=1, max_cells=4)
        run_sweep(grid, tmp_path / "killed", shards=3, resume=True)
        assert (
            _merged_bytes(tmp_path / "full", tmp_path / "a.jsonl")
            == _merged_bytes(tmp_path / "killed", tmp_path / "b.jsonl")
        )

    def test_duplicate_cells_run_once(self, tmp_path):
        grid = _grid(topologies=(
            {"family": "paper", "sizes": [1]},
            {"family": "paper", "sizes": [1]},
        ))
        report = run_sweep(grid, tmp_path / "out")
        assert report.duplicate_cells == 4
        assert report.ran_cells == report.unique_cells == 4

    def test_fronts_are_mutually_non_dominating(self, tmp_path):
        report = run_sweep(_grid(), tmp_path / "out")
        for front in report.fronts.values():
            for mine in front:
                for other in front:
                    if mine is other:
                        continue
                    dominates = (
                        other["delta_c"] <= mine["delta_c"]
                        and other["e_bar"] <= mine["e_bar"]
                        and (other["delta_c"] < mine["delta_c"]
                             or other["e_bar"] < mine["e_bar"])
                    )
                    assert not dominates

    def test_include_matrix_embeds_rows(self, tmp_path):
        grid = _grid(seeds=(0,), weights=({"alpha": 1.0, "beta": 0.1},),
                     topologies=({"family": "paper", "sizes": [1]},),
                     include_matrix=True)
        run_sweep(grid, tmp_path / "out")
        record = next(iter_sweep_records(tmp_path / "out"))
        matrix = np.asarray(record["matrix"])
        assert matrix.shape == (4, 4)
        assert np.allclose(matrix.sum(axis=1), 1.0)


class TestStandaloneBitIdentity:
    def test_sweep_record_matches_direct_optimize(self, tmp_path):
        grid = _grid(seeds=(3,), methods=("perturbed",),
                     weights=({"alpha": 1.0, "beta": 0.25},),
                     topologies=({"family": "paper", "sizes": [2]},))
        run_sweep(grid, tmp_path / "out")
        record = next(iter_sweep_records(tmp_path / "out"))
        cell = grid.expand()[0]

        cost = CoverageCost(
            build_topology(cell),
            CostWeights(alpha=cell.alpha, beta=cell.beta,
                        epsilon=cell.epsilon),
            linalg=cell.linalg,
        )
        direct = optimize(
            cost, method="perturbed", seed=cell.seed,
            options={
                "max_iterations": cell.iterations,
                "trisection_rounds": cell.trisection_rounds,
                "stall_limit": cell.iterations + 1,
                "record_history": False,
            },
        )
        assert record["result"]["u_eps"] == direct.u_eps
        assert record["result"]["best_u_eps"] == direct.best_u_eps
        assert record["result"]["delta_c"] == direct.delta_c
        assert record["result"]["e_bar"] == direct.e_bar

    def test_run_cell_reuses_or_builds_topology_identically(self):
        cell = _grid().expand()[0]
        fresh_record, fresh_matrix = run_cell(cell)
        shared_record, shared_matrix = run_cell(
            cell, topology=build_topology(cell)
        )
        assert json.dumps(fresh_record) == json.dumps(shared_record)
        assert fresh_matrix.tobytes() == shared_matrix.tobytes()


class TestProcessBackendSweep:
    def test_process_shm_matches_serial_and_reuses_store(self, tmp_path):
        grid = _grid(
            topologies=({"family": "city-grid", "sizes": [64]},),
            weights=({"alpha": 1.0, "beta": 0.01},),
            seeds=(0, 1, 2),
            iterations=2,
        )
        serial = run_sweep(grid, tmp_path / "serial")
        report = run_sweep(
            grid, tmp_path / "proc", shards=2, backend="process",
            jobs=2, transport="shm",
        )
        assert (
            _merged_bytes(tmp_path / "serial", tmp_path / "a.jsonl")
            == _merged_bytes(tmp_path / "proc", tmp_path / "b.jsonl")
        )
        assert report.broadcast_requests > 0
        assert report.broadcast_hits > 0
        assert report.result_bytes > 0
        assert report.dispatch_bytes > 0
        assert serial.dispatch_bytes == 0

    @staticmethod
    def _three_topology_grid():
        # Three topology groups of two cells: with shards=3 each shard
        # holds exactly one group.
        return _grid(topologies=({"family": "paper", "sizes": [1, 2, 3]},),
                     seeds=(0,), iterations=2)

    @staticmethod
    def _count_calls(monkeypatch, method):
        """Record each call of ``ProcessExecutor.<method>``."""
        from repro.exec import ProcessExecutor

        calls = []
        original = getattr(ProcessExecutor, method)

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(ProcessExecutor, method, counting)
        return calls

    def test_one_pool_per_sweep_whatever_the_shard_count(
        self, tmp_path, monkeypatch
    ):
        created = self._count_calls(monkeypatch, "_create_pool")
        grid = self._three_topology_grid()
        report = run_sweep(
            grid, tmp_path / "proc", shards=3, backend="process", jobs=2,
        )
        assert len(created) == 1
        assert report.ran_cells == 6
        assert len(list((tmp_path / "proc").glob("shard-*.jsonl"))) == 3
        run_sweep(grid, tmp_path / "serial", shards=3)
        assert (
            _merged_bytes(tmp_path / "serial", tmp_path / "a.jsonl")
            == _merged_bytes(tmp_path / "proc", tmp_path / "b.jsonl")
        )

    def test_process_kill_in_second_shard_then_resume(self, tmp_path):
        grid = self._three_topology_grid()
        run_sweep(grid, tmp_path / "full", shards=3)
        partial = run_sweep(
            grid, tmp_path / "killed", shards=3, backend="process",
            jobs=2, max_cells=3,
        )
        assert partial.interrupted and partial.ran_cells == 3
        # shard 0 finished, shard 1 stopped after one of its two cells
        counts = {
            path.name: len(path.read_text().splitlines())
            for path in (tmp_path / "killed").glob("shard-*.jsonl")
        }
        assert counts == {"shard-000.jsonl": 2, "shard-001.jsonl": 1}
        resumed = run_sweep(
            grid, tmp_path / "killed", shards=3, backend="process",
            jobs=2, resume=True,
        )
        assert resumed.skipped_cells == 3 and resumed.ran_cells == 3
        assert (
            _merged_bytes(tmp_path / "full", tmp_path / "a.jsonl")
            == _merged_bytes(tmp_path / "killed", tmp_path / "b.jsonl")
        )

    def test_resume_of_finished_sweep_builds_no_pool(
        self, tmp_path, monkeypatch
    ):
        grid = self._three_topology_grid()
        run_sweep(grid, tmp_path / "out", shards=3)
        created = self._count_calls(monkeypatch, "_create_pool")
        stores = self._count_calls(monkeypatch, "_ensure_store")
        report = run_sweep(
            grid, tmp_path / "out", shards=3, backend="process", jobs=2,
            transport="shm", resume=True,
        )
        assert report.ran_cells == 0 and report.skipped_cells == 6
        assert created == [] and stores == []
        assert report.broadcast_requests == 0

    def test_max_cells_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_cells"):
            run_sweep(_grid(), tmp_path / "out", max_cells=-1)

    def test_shards_validation(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            run_sweep(_grid(), tmp_path / "out", shards=0)
