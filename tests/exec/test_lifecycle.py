"""Executor lifecycle edges: default restoration on exception, closed
pools transparently re-opening, and transport argument validation."""

import pytest

from repro.exec import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_executor,
    get_executor,
    resolve_executor,
    set_default_executor,
    using_executor,
)


def _square(x):
    return x * x


def _matrix_sum(array):
    return float(array.sum())


def _topology_size(task):
    topology, factor = task
    return topology.size * factor


class TestUsingExecutorExceptionSafety:
    def test_restores_previous_default_on_exception(self):
        before = default_executor()
        with pytest.raises(RuntimeError, match="boom"):
            with using_executor("thread", jobs=1):
                assert default_executor() is not before
                raise RuntimeError("boom")
        assert default_executor() is before

    def test_owned_executor_closed_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with using_executor("thread", jobs=1) as scoped:
                scoped.map(_square, [1, 2])
                raise RuntimeError("boom")
        assert scoped._pool is None

    def test_instance_not_closed_on_exception(self):
        mine = ThreadExecutor(jobs=1)
        try:
            mine.map(_square, [1])
            with pytest.raises(RuntimeError, match="boom"):
                with using_executor(mine):
                    raise RuntimeError("boom")
            # still usable: the scope never owned it
            assert mine.map(_square, [3]) == [9]
        finally:
            mine.close()

    def test_nested_scopes_unwind_through_exceptions(self):
        previous = set_default_executor(None)
        try:
            with using_executor("serial") as outer:
                with pytest.raises(RuntimeError, match="inner"):
                    with using_executor("thread", jobs=1):
                        raise RuntimeError("inner")
                assert default_executor() is outer
        finally:
            set_default_executor(previous)


class TestClosedPoolReopens:
    def test_thread_pool_reopens_after_close(self):
        executor = ThreadExecutor(jobs=1)
        try:
            assert executor.map(_square, [2]) == [4]
            first_pool = executor._pool
            executor.close()
            assert executor._pool is None
            assert executor.map(_square, [3]) == [9]
            assert executor._pool is not first_pool
        finally:
            executor.close()

    def test_process_pool_and_store_reopen_after_close(self):
        executor = ProcessExecutor(jobs=1, transport="pickle")
        try:
            assert executor.map(_square, [2]) == [4]
            executor.close()
            assert executor._pool is None
            assert executor._store is None
            assert executor.map(_square, [5]) == [25]
        finally:
            executor.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_empty_fan_out_builds_no_pool(self, backend):
        with get_executor(backend, jobs=1) as executor:
            assert executor.map(_square, []) == []
            assert list(executor.imap(_square, [])) == []
            assert executor._pool is None


class TestTransportValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            ProcessExecutor(jobs=1, transport="carrier-pigeon")
        with pytest.raises(ValueError, match="unknown transport"):
            get_executor("serial", transport="carrier-pigeon")

    def test_shm_requires_process_backend(self):
        with pytest.raises(ValueError, match="process backend"):
            get_executor("serial", transport="shm")
        with pytest.raises(ValueError, match="process backend"):
            get_executor("thread", transport="shm")

    def test_pickle_and_auto_are_noops_elsewhere(self):
        for transport in ("pickle", "auto"):
            executor = get_executor("serial", transport=transport)
            executor.close()
            assert isinstance(executor, SerialExecutor)

    def test_resolve_rejects_transport_with_instance(self):
        with SerialExecutor() as mine:
            with pytest.raises(ValueError, match="transport applies"):
                resolve_executor(mine, transport="shm")

    def test_resolve_rejects_transport_with_ambient_default(self):
        with pytest.raises(ValueError, match="transport applies"):
            resolve_executor(None, transport="shm")

    def test_resolve_builds_backend_with_transport(self):
        executor = resolve_executor("process", jobs=1, transport="shm")
        try:
            assert isinstance(executor, ProcessExecutor)
            assert executor.transport == "shm"
        finally:
            executor.close()

    def test_multistart_rejects_transport_for_inprocess_modes(self):
        from repro import CostWeights, CoverageCost, paper_topology
        from repro.core.multistart import optimize_multistart

        cost = CoverageCost(
            paper_topology(1), CostWeights(alpha=1.0, beta=1.0)
        )
        with pytest.raises(ValueError, match="no serialization"):
            optimize_multistart(cost, executor="serial", transport="shm")
        with pytest.raises(ValueError, match="transport applies"):
            optimize_multistart(cost, transport="shm")


class TestExecutorStoreLifetime:
    """A ProcessExecutor's SharedTensorStore lives until the executor
    closes: later maps on the same executor reuse its broadcasts."""

    def test_store_survives_maps_within_one_executor(self):
        import numpy as np

        from repro import paper_topology

        topology = paper_topology(1)
        expected = [topology.size * f for f in (1, 2)]
        with ProcessExecutor(jobs=1, transport="shm") as executor:
            for _ in range(2):
                got = executor.map(
                    _topology_size, [(topology, 1), (topology, 2)]
                )
                assert got == expected
            store = executor._store
            # the second map's broadcasts hit the live registry instead
            # of re-exporting the topology
            assert store.broadcast_requests > 0
            assert store.broadcast_hits >= store.broadcast_requests // 2
            assert len(store.segment_names()) > 0
        assert store.segment_names() == []
        with pytest.raises(RuntimeError):
            store.put(np.ones(2))
        # close() folds the store's tallies into the executor's timings
        assert executor.timings.broadcast_requests == store.broadcast_requests
        assert executor.timings.broadcast_hits == store.broadcast_hits


def _running():
    """Live worker processes and this package's shm segments."""
    import gc
    import multiprocessing
    import os

    from repro.exec import shm

    gc.collect()
    segments = set()
    if os.path.isdir("/dev/shm"):
        segments = {
            name for name in os.listdir("/dev/shm")
            if name.startswith(shm.SEGMENT_PREFIX)
        }
    return set(multiprocessing.active_children()), segments


class TestDriversCloseOwnedExecutors:
    """A driver that builds an executor from a backend name closes it
    before returning; an instance or the installed default stays open."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro import CostWeights, CoverageCost, paper_topology
        from repro.core.initializers import uniform_matrix

        topology = paper_topology(1)
        cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1.0))
        matrix = uniform_matrix(topology.size, support=topology.adjacency)
        return topology, cost, matrix

    @staticmethod
    def _drivers(topology, cost, matrix):
        from repro.core.multistart import optimize_multistart
        from repro.core.perturbed import PerturbedOptions
        from repro.experiments.runner import (
            optimize_weight_setting,
            run_many,
            simulate_repeatedly,
        )
        from repro.multisensor.engine import simulate_team_repeatedly

        return {
            "run_many": lambda: run_many(
                cost, "perturbed", runs=2, iterations=2,
                executor="process", transport="shm",
            ),
            "optimize_weight_setting": lambda: optimize_weight_setting(
                topology, 1.0, 1.0, iterations=2, random_starts=1,
                executor="process",
            ),
            "optimize_multistart": lambda: optimize_multistart(
                cost, random_starts=1, seed=0,
                options=PerturbedOptions(max_iterations=2),
                executor="process", transport="shm",
            ),
            "simulate_repeatedly": lambda: simulate_repeatedly(
                topology, matrix, transitions=200, repetitions=2,
                executor="process", transport="shm",
            ),
            "simulate_team_repeatedly": lambda: simulate_team_repeatedly(
                topology, [matrix, matrix], horizon=200.0, repetitions=2,
                executor="process", transport="shm",
            ),
        }

    @pytest.mark.parametrize("driver", [
        "run_many", "optimize_weight_setting", "optimize_multistart",
        "simulate_repeatedly", "simulate_team_repeatedly",
    ])
    def test_named_backend_leaves_nothing_running(self, setup, driver):
        children, segments = _running()
        self._drivers(*setup)[driver]()
        assert _running() == (children, segments)

    def test_instance_and_installed_default_stay_open(self, setup):
        from repro.experiments.runner import run_many

        _, cost, _ = setup
        with ProcessExecutor(jobs=1) as executor:
            run_many(cost, "perturbed", runs=1, iterations=2,
                     executor=executor)
            assert executor._pool is not None
        with using_executor("thread", jobs=1) as installed:
            run_many(cost, "perturbed", runs=1, iterations=2)
            assert installed._pool is not None
