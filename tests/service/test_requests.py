"""Canonical request identity: digests, round trips, sweep consistency."""

import numpy as np
import pytest

import repro
from repro.service import (
    execute_request,
    optimize_request,
    request_digest,
    request_from_cell,
    request_from_dict,
    request_identity,
    request_to_dict,
    simulation_request,
    team_request,
)
from repro.service.requests import JobRequest


@pytest.fixture(scope="module")
def topology():
    return repro.paper_topology(1)


@pytest.fixture(scope="module")
def matrix(topology):
    return repro.metropolis_hastings_matrix(topology.target_shares)


class TestCanonicalization:
    def test_dict_and_dataclass_options_share_digest(self, topology):
        from_dict = optimize_request(
            topology, method="perturbed", seed=3,
            options={"max_iterations": 15, "trisection_rounds": 6},
        )
        from_dataclass = optimize_request(
            topology, method="perturbed", seed=3,
            options=repro.PerturbedOptions(
                max_iterations=15, trisection_rounds=6
            ),
        )
        assert request_digest(from_dict) == request_digest(from_dataclass)

    def test_default_options_share_digest_with_explicit_defaults(
        self, topology
    ):
        implicit = optimize_request(topology, method="adaptive")
        explicit = optimize_request(
            topology, method="adaptive", options=repro.AdaptiveOptions()
        )
        assert request_digest(implicit) == request_digest(explicit)

    def test_different_seed_different_digest(self, topology):
        a = optimize_request(topology, seed=0)
        b = optimize_request(topology, seed=1)
        assert request_digest(a) != request_digest(b)

    def test_terms_enter_identity(self, topology):
        plain = optimize_request(topology)
        composed = optimize_request(
            topology, terms={"minimax": 0.5}
        )
        assert request_digest(plain) != request_digest(composed)
        # empty terms are omitted, matching the no-terms spelling
        empty = optimize_request(topology, terms=())
        assert request_digest(plain) == request_digest(empty)

    def test_matrix_enters_identity_by_digest(self, topology, matrix):
        a = simulation_request(topology, matrix, transitions=100)
        other = repro.uniform_policy_matrix(topology.size)
        b = simulation_request(topology, other, transitions=100)
        assert request_digest(a) != request_digest(b)
        identity = request_identity(a)
        # identity carries digests, not floats
        assert all(
            isinstance(d, str) and len(d) == 64
            for d in identity["matrices"]
        )

    def test_starts_only_identifies_multistart(self, topology):
        a = optimize_request(topology, method="perturbed", starts=1)
        b = optimize_request(topology, method="perturbed", starts=5)
        assert request_digest(a) == request_digest(b)
        c = optimize_request(topology, method="multistart", starts=2)
        d = optimize_request(topology, method="multistart", starts=3)
        assert request_digest(c) != request_digest(d)

    @pytest.mark.parametrize("method,digest", [
        ("basic", "2ed068aec3938937c4bc5e6e421fafb3"
                  "46ba68665ca0eb32e6f507475bf20a74"),
        ("adaptive", "7cd55e1342ecfc9841b45c81c4590bb2b0"
                     "541c0adbfebc7ed109a357855652be"),
        ("mirror", "273087c09d2c821313d53b035aba9a4e44"
                   "34a06e330be694737125ba983587f8"),
        ("perturbed", "20d1a79e546786083e7b503a32f33a0cc8"
                      "8aa43dd758681fb15fa4b4258e716b"),
        ("multistart", "3bcebb788221f5074c15039d63adb72da1"
                       "9b94d610d74b4e0ad37915c26799ed"),
    ])
    def test_default_request_digest_pinned(self, topology, method, digest):
        """Options field sets are part of the identity: a new or renamed
        field would re-key every cached result of that method."""
        request = optimize_request(topology, method=method, seed=3)
        assert request_digest(request) == digest


class TestRoundTrip:
    def test_optimize_round_trip(self, topology):
        request = optimize_request(
            topology, alpha=1.0, beta=0.5, method="perturbed", seed=7,
            options={"max_iterations": 12}, terms={"kcoverage": 0.2},
        )
        rebuilt = request_from_dict(request_to_dict(request))
        assert request_digest(rebuilt) == request_digest(request)

    def test_simulate_round_trip(self, topology, matrix):
        request = simulation_request(
            topology, matrix, transitions=250, seed=2,
            options={"start_state": 1, "warmup": 5},
        )
        rebuilt = request_from_dict(request_to_dict(request))
        assert request_digest(rebuilt) == request_digest(request)
        assert np.array_equal(rebuilt.matrices[0], matrix)

    def test_team_round_trip(self, topology, matrix):
        request = team_request(
            topology, [matrix, matrix], horizon=400.0, seed=5,
            options={"starts": (0, 2)},
        )
        rebuilt = request_from_dict(request_to_dict(request))
        assert request_digest(rebuilt) == request_digest(request)
        assert len(rebuilt.matrices) == 2


class TestValidation:
    def test_unknown_kind_rejected(self, topology):
        with pytest.raises(ValueError, match="kind"):
            JobRequest(kind="transmogrify", topology=topology, params={})

    def test_unknown_method_rejected(self, topology):
        with pytest.raises(ValueError, match="available methods"):
            optimize_request(topology, method="gradient-ascent")

    def test_unknown_option_key_named(self, topology):
        with pytest.raises(ValueError, match="bogus"):
            optimize_request(topology, options={"bogus": 1})

    def test_bad_schema_rejected(self, topology):
        data = request_to_dict(optimize_request(topology))
        data["schema"] = "repro/other/v1"
        with pytest.raises(ValueError, match="schema"):
            request_from_dict(data)

    def test_v1_request_rejected(self, topology):
        """v1 requests carried the removed option fields; they are
        refused by schema rather than silently re-keyed."""
        data = request_to_dict(optimize_request(topology))
        data["schema"] = "repro/service-request/v1"
        with pytest.raises(ValueError, match="service-request/v2"):
            request_from_dict(data)

    def test_unknown_params_rejected(self, topology):
        data = request_to_dict(optimize_request(topology))
        data["params"]["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            request_from_dict(data)

    def test_team_needs_matrices(self, topology):
        with pytest.raises(ValueError, match="matrix"):
            team_request(topology, [], horizon=100.0)


class TestSweepConsistency:
    def test_cell_request_executes_like_run_cell(self, topology):
        """A cell-derived request's payload equals the sweep record,
        for a single walk and for a multi-start's best run."""
        from repro.sweep.grid import SweepCell, run_cell

        for method, starts in (("perturbed", 1), ("multistart", 2)):
            cell = SweepCell(
                family="paper", size=1, phi="paper", phi_alpha=0.0,
                phi_seed=0, alpha=1.0, beta=1.0, epsilon=1e-4,
                method=method, seed=3, iterations=8, starts=starts,
                trisection_rounds=20, linalg="auto",
            )
            record, matrix = run_cell(cell)
            payload = execute_request(request_from_cell(cell))
            assert payload["result"] == record["result"]
            assert payload["matrix"] == matrix.tolist()


class TestExecutePayloads:
    def test_simulate_payload_matches_facade(self, topology, matrix):
        request = simulation_request(topology, matrix, transitions=200,
                                     seed=4)
        payload = execute_request(request)
        direct = repro.simulate(topology, matrix, transitions=200,
                                seed=4)
        result = payload["result"]
        assert result["coverage_shares"] == \
            direct.coverage_shares.tolist()
        assert result["delta_c"] == direct.delta_c
        assert result["e_bar_transitions"] == direct.e_bar_transitions

    def test_team_payload_matches_facade(self, topology, matrix):
        request = team_request(topology, [matrix, matrix],
                               horizon=300.0, seed=4)
        payload = execute_request(request)
        direct = repro.simulate(topology, matrix, kind="team",
                                sensors=2, horizon=300.0, seed=4)
        result = payload["result"]
        assert result["coverage_shares"] == \
            direct.coverage_shares.tolist()
        assert result["sensors"] == 2
