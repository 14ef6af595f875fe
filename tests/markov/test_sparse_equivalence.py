"""Sparse chain solvers vs the dense reference, and incremental updates.

The sparse path's contract (``repro.markov.sparse`` /
``repro.markov.incremental``) is *tolerance* equivalence with the dense
solvers: stationary distributions, core solves ``Z @ v`` / ``v^T Z``,
fundamental matrices, and first-passage times must agree to tight
relative tolerances on every ergodic chain, while the dense path stays
the bit-exact paper-scale reference.  These tests pin that contract and
the drift-monitor / rank-cap behavior of the incremental tracker.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import scalable_topology
from repro.core.initializers import paper_random_matrix, uniform_matrix
from repro.markov.fundamental import (
    factor_core,
    fundamental_and_stationary,
)
from repro.markov.incremental import (
    IncrementalCoreTracker,
    WoodburyCoreSolver,
)
from repro.markov.passage import first_passage_times
from repro.markov.sparse import (
    SparseCoreSolver,
    SparseStationaryTemplate,
    changed_rows,
    sparse_fundamental_and_stationary,
    sparse_stationary,
)
from repro.markov.stationary import stationary_via_linear_solve


def support_matrix(size=36, seed=11):
    """A support-masked ergodic matrix plus its adjacency mask."""
    topology = scalable_topology("city-grid", size, seed=seed)
    matrix = paper_random_matrix(
        size, seed=seed + 1, support=topology.adjacency
    )
    return matrix, topology.adjacency


class TestSparseStationary:
    def test_matches_dense_on_full_support(self):
        matrix = paper_random_matrix(12, seed=3)
        dense = stationary_via_linear_solve(matrix)
        sparse = sparse_stationary(matrix)
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)

    def test_matches_dense_on_masked_support(self):
        matrix, _ = support_matrix()
        dense = stationary_via_linear_solve(matrix)
        sparse = sparse_stationary(matrix)
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)
        assert sparse.sum() == pytest.approx(1.0, abs=1e-15)

    def test_uniform_chain_recovers_uniform_pi(self):
        size = 8
        sparse = sparse_stationary(uniform_matrix(size))
        np.testing.assert_allclose(
            sparse, np.full(size, 1.0 / size), atol=1e-14
        )


class TestSparseStationaryTemplate:
    def test_template_matches_scratch_assembly(self):
        matrix, support = support_matrix()
        template = SparseStationaryTemplate(support)
        np.testing.assert_allclose(
            template.solve(matrix),
            sparse_stationary(matrix),
            rtol=0,
            atol=1e-13,
        )

    def test_template_reusable_across_matrices(self):
        _, support = support_matrix()
        template = SparseStationaryTemplate(support)
        for seed in (20, 21, 22):
            matrix = paper_random_matrix(
                support.shape[0], seed=seed, support=support
            )
            np.testing.assert_allclose(
                template.solve(matrix),
                stationary_via_linear_solve(matrix),
                rtol=0,
                atol=1e-12,
            )

    def test_solve_batch_matches_single_solves(self):
        matrix, support = support_matrix()
        other = paper_random_matrix(
            support.shape[0], seed=77, support=support
        )
        # A ray of nearby probes plus one distant matrix, refined
        # against the ray base's LU: both the iterative-refinement fast
        # path and the refactor fallback.
        stack = np.stack([
            matrix,
            0.9 * matrix + 0.1 * other,
            0.8 * matrix + 0.2 * other,
            other,
        ])
        template = SparseStationaryTemplate(support)
        reference = SparseCoreSolver(matrix, template=template)
        solved = template.solve_batch(
            template.values(stack), range(len(stack)), reference
        )
        assert sorted(solved) == [0, 1, 2, 3]
        for index, pi in solved.items():
            np.testing.assert_allclose(
                pi,
                stationary_via_linear_solve(stack[index]),
                rtol=0,
                atol=1e-11,
            )

    def test_threads_sharing_a_template_get_serial_answers(self):
        """A solve writes nothing to the template, so concurrent solves
        on one template (a cost shared by threads) equal serial ones."""
        _, support = support_matrix()
        template = SparseStationaryTemplate(support)
        matrices = [
            paper_random_matrix(support.shape[0], seed=seed,
                                support=support)
            for seed in range(8)
        ]
        expected = [template.solve(m).tobytes() for m in matrices]
        matches = {}

        def work(index):
            matches[index] = all(
                template.solve(matrices[index]).tobytes()
                == expected[index]
                for _ in range(25)
            )

        threads = [
            threading.Thread(target=work, args=(index,))
            for index in range(len(matrices))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert matches == {index: True for index in range(len(matrices))}

    def test_size_mismatch_rejected(self):
        _, support = support_matrix()
        template = SparseStationaryTemplate(support)
        with pytest.raises(ValueError, match="template size"):
            template.solve(uniform_matrix(4))

    def test_non_square_support_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SparseStationaryTemplate(np.ones((3, 4), dtype=bool))


class TestSparseCoreSolver:
    def test_solve_matches_dense_core(self):
        matrix, _ = support_matrix()
        z, pi = fundamental_and_stationary(matrix)
        solver = SparseCoreSolver(matrix, pi)
        rng = np.random.default_rng(5)
        rhs = rng.normal(size=matrix.shape[0])
        dense = factor_core(matrix, pi)
        np.testing.assert_allclose(
            solver.solve(rhs), dense.solve(rhs), rtol=1e-10
        )
        np.testing.assert_allclose(
            solver.solve_transpose(rhs),
            dense.solve_transpose(rhs),
            rtol=1e-10,
        )

    def test_full_inverse_is_fundamental_matrix(self):
        matrix, _ = support_matrix()
        z, pi = fundamental_and_stationary(matrix)
        solver = SparseCoreSolver(matrix, pi)
        np.testing.assert_allclose(
            solver.full_inverse(), z, rtol=0, atol=1e-10
        )

    def test_stacked_solves_match_column_loop(self):
        matrix, _ = support_matrix()
        _, pi = sparse_fundamental_and_stationary(matrix)
        solver = SparseCoreSolver(matrix, pi)
        rng = np.random.default_rng(9)
        rhs = rng.normal(size=(matrix.shape[0], 3))
        stacked = solver.solve(rhs)
        for column in range(3):
            np.testing.assert_allclose(
                stacked[:, column],
                solver.solve(rhs[:, column]),
                rtol=0,
                atol=1e-13,
            )

    def test_first_passage_times_via_sparse_inverse(self):
        matrix, _ = support_matrix(seed=31)
        solver, pi = sparse_fundamental_and_stationary(matrix)
        sparse_r = first_passage_times(
            matrix, z=solver.full_inverse(), pi=pi
        )
        dense_r = first_passage_times(matrix)
        np.testing.assert_allclose(sparse_r, dense_r, rtol=1e-9)
        # Kac's formula survives the sparse route.
        np.testing.assert_allclose(
            np.diag(sparse_r), 1.0 / pi, rtol=1e-9
        )


class TestChangedRows:
    def test_finds_perturbed_rows(self):
        matrix, support = support_matrix()
        other = matrix.copy()
        other[3, support[3]] = matrix[3, support[3]][::-1]
        assert changed_rows(matrix, other).tolist() == [3]

    def test_tolerance_neglects_tiny_rows(self):
        matrix, support = support_matrix()
        other = matrix + 1e-15
        assert changed_rows(matrix, other).size == matrix.shape[0]
        assert changed_rows(matrix, other, atol=1e-12).size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            changed_rows(np.eye(3), np.eye(4))


def perturb_rows(matrix, support, rows, scale, seed=0):
    """Row-stochastic perturbation of ``rows`` restricted to support."""
    rng = np.random.default_rng(seed)
    result = matrix.copy()
    for row in rows:
        entries = np.nonzero(support[row])[0]
        nudge = rng.normal(size=entries.size)
        nudge -= nudge.mean()
        step = scale * result[row, entries].min() / np.abs(nudge).max()
        result[row, entries] += step * nudge
    return result


class TestIncrementalCoreTracker:
    def test_first_acquire_refactorizes(self):
        matrix, _ = support_matrix()
        tracker = IncrementalCoreTracker()
        pi, solver = tracker.acquire(matrix)
        assert tracker.refactorizations == 1
        assert tracker.incremental_updates == 0
        np.testing.assert_allclose(
            pi, stationary_via_linear_solve(matrix), atol=1e-12
        )

    def test_identical_matrix_reuses_base(self):
        matrix, _ = support_matrix()
        tracker = IncrementalCoreTracker()
        _, first = tracker.acquire(matrix)
        _, second = tracker.acquire(matrix.copy())
        assert second is first
        assert tracker.refactorizations == 1

    def test_low_rank_step_takes_incremental_path(self):
        matrix, support = support_matrix()
        tracker = IncrementalCoreTracker()
        tracker.acquire(matrix)
        stepped = perturb_rows(matrix, support, [2, 7, 11], 1e-3)
        pi, solver = tracker.acquire(stepped)
        assert tracker.incremental_updates == 1
        assert isinstance(solver, WoodburyCoreSolver)
        np.testing.assert_allclose(
            pi, stationary_via_linear_solve(stepped), atol=1e-10
        )
        # The corrected solver answers for the *new* core.
        reference = factor_core(stepped, pi)
        rhs = np.linspace(-1.0, 1.0, matrix.shape[0])
        np.testing.assert_allclose(
            solver.solve(rhs), reference.solve(rhs), rtol=1e-8
        )

    def test_full_rank_step_forces_refactorization(self):
        matrix, support = support_matrix()
        tracker = IncrementalCoreTracker(rank_cap=4)
        tracker.acquire(matrix)
        stepped = perturb_rows(
            matrix, support, range(matrix.shape[0]), 1e-2
        )
        tracker.acquire(stepped)
        assert tracker.incremental_updates == 0
        assert tracker.refactorizations == 2

    def test_drift_monitor_forces_refactorization(self):
        # An impossibly tight drift tolerance makes every verified
        # update fail its residual check, so the tracker must fall back
        # to a fresh factorization — and still return correct answers.
        matrix, support = support_matrix()
        tracker = IncrementalCoreTracker(drift_tol=1e-300)
        tracker.acquire(matrix)
        stepped = perturb_rows(matrix, support, [5], 1e-3)
        pi, _ = tracker.acquire(stepped)
        assert tracker.drift_refactorizations == 1
        assert tracker.incremental_updates == 0
        assert tracker.refactorizations == 2
        np.testing.assert_allclose(
            pi, stationary_via_linear_solve(stepped), atol=1e-12
        )

    def test_staleness_cap_forces_rebase(self):
        matrix, support = support_matrix()
        tracker = IncrementalCoreTracker(max_updates=1)
        tracker.acquire(matrix)
        first = perturb_rows(matrix, support, [1], 1e-4, seed=1)
        second = perturb_rows(first, support, [2], 1e-4, seed=2)
        tracker.acquire(first)
        assert tracker.incremental_updates == 1
        tracker.acquire(second)
        assert tracker.refactorizations == 2

    def test_near_converged_step_stays_incremental(self):
        # Every row moves by float noise but only two move materially:
        # tolerance-aware row selection must still count this as
        # low-rank.
        matrix, support = support_matrix()
        tracker = IncrementalCoreTracker()
        tracker.acquire(matrix)
        stepped = perturb_rows(matrix, support, [4, 9], 1e-4)
        stepped[support] += 1e-16
        pi, _ = tracker.acquire(stepped)
        assert tracker.incremental_updates == 1
        np.testing.assert_allclose(
            pi, stationary_via_linear_solve(stepped), atol=1e-10
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="rank_cap"):
            IncrementalCoreTracker(rank_cap=0)
        with pytest.raises(ValueError, match="drift_tol"):
            IncrementalCoreTracker(drift_tol=0.0)
        with pytest.raises(ValueError, match="max_updates"):
            IncrementalCoreTracker(max_updates=0)

    def test_supplied_pi_is_trusted(self):
        matrix, _ = support_matrix()
        tracker = IncrementalCoreTracker()
        reference = sparse_stationary(matrix)
        pi, _ = tracker.acquire(matrix, reference)
        np.testing.assert_array_equal(pi, reference)
