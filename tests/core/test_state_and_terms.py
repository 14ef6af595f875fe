"""Tests for repro.core.state and repro.core.terms.

Every term's analytic partials are validated against central finite
differences *of that term alone*, holding the other arguments fixed —
which isolates mistakes per-term instead of only catching them in the
total gradient.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.initializers import paper_random_matrix
from repro.core.state import ChainState
from repro.core.terms import (
    CoverageDeviationTerm,
    EnergyTerm,
    EntropyTerm,
    ExposureTerm,
    broadcast_weights,
)
from repro.markov.fundamental import factor_core, fundamental_matrix
from repro.markov.passage import first_passage_times
from repro.markov.sparse import SparseStationaryTemplate
from repro.markov.stationary import stationary_via_linear_solve
from repro import paper_topology, scalable_topology
from repro.utils.perf import perf_scope


@pytest.fixture
def state(rng):
    matrix = 0.03 + 0.88 * rng.dirichlet(np.ones(4), size=4)
    matrix /= matrix.sum(axis=1, keepdims=True)
    return ChainState.from_matrix(matrix)


def term_value_at(term, p, pi, z):
    """Evaluate a term at explicitly supplied (p, pi, z)."""
    fake = ChainState(p=p, pi=pi, z=z)
    return term.value(fake)


def check_partials(term, state, rng, h=1e-6, atol=1e-4):
    """Finite-difference check of grad_pi, grad_z, grad_p for one term."""
    p, pi, z = state.p, state.pi, state.z
    grad_pi = term.grad_pi(state)
    if grad_pi is not None:
        for _ in range(3):
            d = rng.normal(size=pi.shape)
            numeric = (
                term_value_at(term, p, pi + h * d, z)
                - term_value_at(term, p, pi - h * d, z)
            ) / (2 * h)
            assert numeric == pytest.approx(
                float(grad_pi @ d), abs=atol, rel=1e-4
            )
    grad_z = term.grad_z(state)
    if grad_z is not None:
        for _ in range(3):
            d = rng.normal(size=z.shape)
            numeric = (
                term_value_at(term, p, pi, z + h * d)
                - term_value_at(term, p, pi, z - h * d)
            ) / (2 * h)
            assert numeric == pytest.approx(
                float(np.sum(grad_z * d)), abs=atol, rel=1e-4
            )
    grad_p = term.grad_p(state)
    if grad_p is not None:
        for _ in range(3):
            d = rng.normal(size=p.shape) * 0.01
            numeric = (
                term_value_at(term, p + h * d, pi, z)
                - term_value_at(term, p - h * d, pi, z)
            ) / (2 * h)
            assert numeric == pytest.approx(
                float(np.sum(grad_p * d)), abs=atol, rel=1e-4
            )


class TestChainState:
    def test_from_matrix_computes_consistently(self, state):
        np.testing.assert_allclose(
            state.pi, stationary_via_linear_solve(state.p), atol=1e-12
        )
        assert state.z.tobytes() == (
            fundamental_matrix(state.p, state.pi).tobytes()
        )

    def test_first_core_solve_factors_once(self, state, rng):
        with perf_scope() as counters:
            fresh = ChainState.from_matrix(state.p)
        assert counters.factorizations == 2
        rhs = rng.normal(size=(4, 3))
        with perf_scope() as counters:
            solved = fresh.solve_core(rhs)
            transposed = fresh.solve_core_transpose(rhs)
            again = fresh.solve_core(rhs)
        assert counters.factorizations == 1
        reference = factor_core(fresh.p, fresh.pi)
        assert solved.tobytes() == reference.solve(rhs).tobytes()
        assert again.tobytes() == solved.tobytes()
        assert transposed.tobytes() == (
            reference.solve_transpose(rhs).tobytes()
        )

    def test_backend_follows_the_template(self, state):
        assert state.linalg == "dense"
        assert not any(
            field.name == "linalg" for field in fields(ChainState)
        )
        topology = scalable_topology("city-grid", 36, seed=1)
        template = SparseStationaryTemplate(topology.adjacency)
        matrix = paper_random_matrix(
            topology.size, seed=2, support=topology.adjacency
        )
        built = ChainState.from_matrix(matrix, template=template)
        assert built.linalg == "sparse" and built.z is None
        parts = ChainState.from_parts(matrix, built.pi, template=template)
        assert parts.linalg == "sparse"
        assert parts.solve_core(np.ones(topology.size)).shape == (
            topology.size,
        )

    def test_from_parts_without_z_needs_a_template(self, state):
        with pytest.raises(ValueError, match="template"):
            ChainState.from_parts(state.p, state.pi)
        with pytest.raises(ValueError, match="template"):
            ChainState(p=state.p, pi=state.pi)

    def test_r_lazily_computed(self, state):
        np.testing.assert_allclose(
            state.r, first_passage_times(state.p), atol=1e-9
        )

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            ChainState.from_matrix(np.ones((3, 3)))

    def test_rejects_non_ergodic(self):
        blocks = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ])
        with pytest.raises(ValueError):
            ChainState.from_matrix(blocks)

    def test_exposure_times_match_r_formula(self, state):
        """Eq. (3): E_i = sum_{j != i} p_ij R_ji / (1 - p_ii)."""
        r = state.r
        p = state.p
        expected = np.array([
            sum(p[i, j] * r[j, i] for j in range(4) if j != i)
            / (1 - p[i, i])
            for i in range(4)
        ])
        np.testing.assert_allclose(
            state.exposure_times(), expected, atol=1e-9
        )

    def test_exposure_rejects_absorbing(self):
        near_absorbing = np.array([
            [1.0, 0.0],
            [0.5, 0.5],
        ])
        with pytest.raises(ValueError):
            state = ChainState.from_matrix(near_absorbing)
            state.exposure_times()


class TestBroadcastWeights:
    def test_scalar(self):
        np.testing.assert_allclose(broadcast_weights("a", 2.0, 3), 2.0)

    def test_array(self):
        out = broadcast_weights("a", [1.0, 2.0], 2)
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="weights"):
            broadcast_weights("a", -1.0, 3)


class TestCoverageDeviationTerm:
    @pytest.fixture
    def term(self):
        topo = paper_topology(3)
        return CoverageDeviationTerm(
            topo.travel_times, topo.passby, topo.target_shares, alpha=1.0
        )

    def test_partials(self, term, state, rng):
        check_partials(term, state, rng)

    def test_grad_z_is_none(self, term, state):
        assert term.grad_z(state) is None

    def test_value_nonnegative(self, term, state):
        assert term.value(state) >= 0.0

    def test_deviations_match_eq12_sum(self, term, state):
        c = term.deviations(state)
        topo = paper_topology(3)
        passby, travel = topo.passby, topo.travel_times
        phi = topo.target_shares
        for i in range(4):
            expected = sum(
                state.pi[j] * state.p[j, k]
                * (passby[j, k, i] - phi[i] * travel[j, k])
                for j in range(4) for k in range(4)
            )
            assert c[i] == pytest.approx(expected, abs=1e-10)

    def test_shape_validation(self):
        topo = paper_topology(3)
        with pytest.raises(ValueError, match="passby"):
            CoverageDeviationTerm(
                topo.travel_times, np.zeros((2, 2, 2)),
                topo.target_shares, 1.0,
            )
        with pytest.raises(ValueError, match="target_shares"):
            CoverageDeviationTerm(
                topo.travel_times, topo.passby, np.ones(3) / 3, 1.0
            )


class TestExposureTerm:
    def test_partials(self, state, rng):
        check_partials(ExposureTerm(beta=1.0, size=4), state, rng)

    def test_partials_with_per_poi_weights(self, state, rng):
        term = ExposureTerm(beta=[1.0, 0.5, 2.0, 0.1], size=4)
        check_partials(term, state, rng)

    def test_exposures_positive(self, state):
        assert np.all(ExposureTerm(1.0, 4).exposures(state) > 0)

    def test_zero_beta_still_exposes_metrics(self, state):
        term = ExposureTerm(0.0, 4)
        assert term.value(state) == 0.0
        assert np.all(term.exposures(state) > 0)


class TestEnergyTerm:
    @pytest.fixture
    def term(self):
        topo = paper_topology(1)
        return EnergyTerm(topo.distances, weight=0.5, target=40.0)

    def test_partials(self, term, state, rng):
        check_partials(term, state, rng)

    def test_mean_travel_formula(self, term, state):
        topo = paper_topology(1)
        d = topo.distances
        expected = sum(
            state.pi[i] * state.p[i, j] * d[i, j]
            for i in range(4) for j in range(4) if j != i
        )
        assert term.mean_travel(state) == pytest.approx(expected)

    def test_zero_at_target(self, state, term):
        gap_free = EnergyTerm(
            paper_topology(1).distances, weight=1.0,
            target=term.mean_travel(state),
        )
        assert gap_free.value(state) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="weight"):
            EnergyTerm(np.zeros((2, 2)), weight=-1.0)


class TestEntropyTerm:
    def test_partials(self, state, rng):
        check_partials(EntropyTerm(weight=0.7), state, rng)

    def test_entropy_matches_markov_module(self, state):
        from repro.markov.entropy import entropy_rate

        term = EntropyTerm(weight=1.0)
        assert term.entropy(state) == pytest.approx(
            entropy_rate(state.p, state.pi)
        )

    def test_value_is_negative_weighted_entropy(self, state):
        term = EntropyTerm(weight=2.0)
        assert term.value(state) == pytest.approx(
            -2.0 * term.entropy(state)
        )

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="weight"):
            EntropyTerm(weight=-0.1)
