"""Backend-invariance: identical results on serial/thread/process.

The executors' core contract (see ISSUE-level acceptance criteria): every
multi-run driver seeds its tasks from pre-spawned independent RNG
streams, so the achieved results are **bit-identical** whichever backend
executes them, and whatever the execution order.
"""

import numpy as np
import pytest

import repro
from repro import CostWeights, CoverageCost, using_executor
from repro.core.multistart import optimize_multistart
from repro.core.perturbed import PerturbedOptions
from repro.experiments.runner import run_many, simulate_repeatedly
from repro.utils import perf

ITERATIONS = 12


@pytest.fixture(scope="module")
def cost():
    from repro import paper_topology

    return CoverageCost(
        paper_topology(1), CostWeights(alpha=1.0, beta=1.0)
    )


@pytest.fixture(scope="module")
def serial_reference(cost):
    return run_many(
        cost, "perturbed", runs=3, iterations=ITERATIONS, seed=5,
        executor="serial",
    )


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestRunManyBackendInvariance:
    def test_best_u_eps_bit_identical(
        self, cost, serial_reference, backend
    ):
        results = run_many(
            cost, "perturbed", runs=3, iterations=ITERATIONS, seed=5,
            executor=backend,
        )
        for reference, result in zip(serial_reference, results):
            assert result.best_u_eps == reference.best_u_eps
            assert np.array_equal(
                result.best_matrix, reference.best_matrix
            )

    def test_perf_counters_travel_back(
        self, cost, serial_reference, backend
    ):
        results = run_many(
            cost, "perturbed", runs=2, iterations=ITERATIONS, seed=5,
            executor=backend,
        )
        for result in results:
            assert result.perf is not None
            assert result.perf.accepted_steps >= 0
            assert result.perf.factorizations > 0


class TestMultistartBackendInvariance:
    def test_thread_matches_serial(self, cost):
        options = PerturbedOptions(
            max_iterations=ITERATIONS, record_history=False,
            stall_limit=ITERATIONS + 1,
        )
        serial = optimize_multistart(
            cost, random_starts=1, seed=2, options=options,
            executor="serial",
        )
        threaded = optimize_multistart(
            cost, random_starts=1, seed=2, options=options,
            executor="thread",
        )
        assert serial.best.best_u_eps == threaded.best.best_u_eps
        assert serial.start_labels == threaded.start_labels
        for a, b in zip(serial.runs, threaded.runs):
            assert a.best_u_eps == b.best_u_eps

    def test_sparse_thread_matches_serial(self):
        """Threads sharing one sparse cost (and its stationary
        template) reproduce the serial multi-start byte for byte."""
        from repro.topology.library import scalable_topology

        cost = CoverageCost(
            scalable_topology("city-grid", 64),
            CostWeights(alpha=1.0, beta=1.0), linalg="sparse",
        )
        options = PerturbedOptions(max_iterations=8)
        serial = optimize_multistart(cost, seed=3, options=options)
        with using_executor("thread", jobs=2):
            threaded = optimize_multistart(cost, seed=3, options=options)
        assert len(serial.runs) == len(threaded.runs) > 1
        for a, b in zip(serial.runs, threaded.runs):
            assert a.history == b.history
            assert a.best_matrix.tobytes() == b.best_matrix.tobytes()
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_ambient_default_executor_is_used(self, cost):
        options = PerturbedOptions(
            max_iterations=ITERATIONS, record_history=False,
            stall_limit=ITERATIONS + 1,
        )
        explicit = optimize_multistart(
            cost, random_starts=1, seed=2, options=options,
            executor="serial",
        )
        with using_executor("thread", jobs=2):
            ambient = optimize_multistart(
                cost, random_starts=1, seed=2, options=options
            )
        assert ambient.best.best_u_eps == explicit.best.best_u_eps

    def test_process_backend_under_perf_scope(self, cost):
        """An ambient perf scope around a process fan-out counts the
        collected result payloads (it used to raise AttributeError)."""
        options = {"max_iterations": 4, "record_history": False}
        serial = repro.optimize(
            cost, method="multistart", seed=2, options=options,
            random_starts=1, execution="serial",
        )
        with perf.perf_scope() as counters:
            fanned = repro.optimize(
                cost, method="multistart", seed=2, options=options,
                random_starts=1, execution="process",
            )
        assert counters.result_bytes > 0
        assert counters.dispatch_bytes > 0
        for a, b in zip(serial.runs, fanned.runs):
            assert a.best_u_eps == b.best_u_eps


class TestSimulateRepeatedlyBackendInvariance:
    def test_thread_matches_serial(self, cost):
        matrix = np.full((cost.size, cost.size), 1.0 / cost.size)
        serial = simulate_repeatedly(
            cost.topology, matrix, transitions=300, repetitions=3,
            seed=9, executor="serial",
        )
        threaded = simulate_repeatedly(
            cost.topology, matrix, transitions=300, repetitions=3,
            seed=9, executor="thread",
        )
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.coverage_shares, b.coverage_shares)
            assert a.delta_c == b.delta_c


#: The per-run counters a walk records for itself.
RUN_COUNTERS = (
    "factorizations", "state_builds", "states_reused", "batch_calls",
    "batch_matrices", "sparse_factorizations",
)


class TestThreadPerfScopes:
    """Perf scopes live in the context: concurrent walks in threads each
    count only their own work, and a scope around the fan-out counts
    every worker's."""

    def test_thread_run_perf_matches_serial(self, cost):
        """Three workers whatever the host's core count, so the walks
        really run concurrently."""
        options = PerturbedOptions(
            max_iterations=8, record_history=False, stall_limit=9,
        )
        serial = optimize_multistart(
            cost, random_starts=1, seed=5, options=options
        )
        with using_executor("thread", jobs=3):
            threaded = optimize_multistart(
                cost, random_starts=1, seed=5, options=options
            )
        for a, b in zip(serial.runs, threaded.runs):
            for name in RUN_COUNTERS + (
                "accepted_steps", "accept_factorizations",
            ):
                assert getattr(a.perf, name) == getattr(b.perf, name), name

    def test_ambient_scope_around_thread_run_many_sums_runs(self, cost):
        with using_executor("thread", jobs=3):
            with perf.perf_scope() as ambient:
                results = run_many(
                    cost, "perturbed", runs=4, iterations=8, seed=5
                )
        assert ambient.executor_tasks == 4
        for name in RUN_COUNTERS:
            assert getattr(ambient, name) == sum(
                getattr(result.perf, name) for result in results
            ), name
