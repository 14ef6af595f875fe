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


class TestSharedStoreRefcounting:
    """A SharedTensorStore injected into executors outlives each of
    them: close() releases one owner, the last owner unlinks."""

    def test_retain_and_close_balance(self):
        import numpy as np

        from repro.exec import SharedTensorStore

        store = SharedTensorStore()
        handle = store.put(np.ones((64, 64)))
        assert store.retain() is store
        store.close()  # releases the retain
        assert np.array_equal(handle.resolve(), np.ones((64, 64)))
        store.close()  # releases the creator's reference -> unlink
        with pytest.raises(RuntimeError):
            store.put(np.ones(2))

    def test_retain_after_final_close_raises(self):
        from repro.exec import SharedTensorStore

        store = SharedTensorStore()
        store.close()
        with pytest.raises(RuntimeError):
            store.retain()

    def test_store_survives_executor_generations(self):
        from repro import paper_topology
        from repro.exec import SharedTensorStore

        with SharedTensorStore() as store:
            topology = paper_topology(1)
            expected = [topology.size * f for f in (1, 2)]
            for generation in range(2):
                executor = ProcessExecutor(
                    jobs=1, transport="shm", store=store
                )
                try:
                    got = executor.map(
                        _topology_size, [(topology, 1), (topology, 2)]
                    )
                finally:
                    executor.close()
                assert got == expected
                # executor.close() released only its own reference
                assert store.broadcast_requests > 0
            # the second pool generation's broadcasts hit the surviving
            # registry instead of re-exporting the topology
            assert store.broadcast_hits >= store.broadcast_requests // 2
            assert len(store.segment_names()) > 0
        with pytest.raises(RuntimeError):
            store.retain()

    def test_executor_falls_back_when_shared_store_already_closed(self):
        from repro.exec import SharedTensorStore

        store = SharedTensorStore()
        store.close()
        executor = ProcessExecutor(jobs=1, transport="shm", store=store)
        try:
            private = executor._ensure_store()
            assert private is not store  # fresh private store
        finally:
            executor.close()
