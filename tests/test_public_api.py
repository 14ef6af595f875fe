"""Public API surface tests: imports, __all__, and the README quickstart."""

import importlib

import numpy as np
import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export: {name}"

    def test_key_entry_points_exported(self):
        for name in (
            "Topology", "paper_topology", "CoverageCost", "CostWeights",
            "optimize_basic", "optimize_adaptive", "optimize_perturbed",
            "optimize_multistart", "simulate_schedule", "MarkovChain",
        ):
            assert name in repro.__all__

    def test_term_registry_exported(self):
        for name in (
            "CostTerm", "TermBatch", "TermSpec", "TERM_REGISTRY",
            "CostSum", "ScaledTerm", "build_term",
            "normalize_extra_terms", "WorstExposureTerm",
            "KCoverageShortfallTerm", "PeriodicityTerm",
        ):
            assert name in repro.__all__
        # The registry order is part of the documented surface.
        assert tuple(repro.TERM_REGISTRY) == (
            "coverage", "exposure", "energy", "entropy",
            "minimax", "kcoverage", "periodicity",
        )

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.markov", "repro.geometry",
        "repro.topology", "repro.simulation", "repro.baselines",
        "repro.experiments", "repro.utils", "repro.exec",
        "repro.sweep", "repro.service",
    ])
    def test_subpackages_importable(self, module):
        imported = importlib.import_module(module)
        for name in getattr(imported, "__all__", []):
            assert hasattr(imported, name), f"{module} missing {name}"


class TestDeprecatedSpellings:
    """The drifted ``steps=``/``duration=`` spellings are gone."""

    @pytest.fixture(scope="class")
    def topology(self):
        return repro.paper_topology(1)

    @pytest.fixture(scope="class")
    def matrix(self, topology):
        return repro.metropolis_hastings_matrix(topology.target_shares)

    def test_removed_spellings_raise_typeerror(self, topology, matrix):
        from repro.multisensor import simulate_team

        with pytest.raises(TypeError, match="steps"):
            repro.simulate_schedule(topology, matrix, steps=200, seed=3)
        with pytest.raises(TypeError, match="duration"):
            simulate_team(topology, [matrix], duration=300.0, seed=3)

    def test_missing_required_argument_still_typeerror(
        self, topology, matrix
    ):
        with pytest.raises(TypeError, match="transitions"):
            repro.simulate_schedule(topology, matrix)


class TestQuickstart:
    def test_readme_quickstart_flow(self):
        """The exact flow advertised in the package docstring."""
        from repro import (
            CostWeights,
            CoverageCost,
            PerturbedOptions,
            optimize_perturbed,
            paper_topology,
            simulate_schedule,
        )

        topology = paper_topology(1)
        cost = CoverageCost(topology, CostWeights(alpha=1.0, beta=1.0))
        result = optimize_perturbed(
            cost, seed=0,
            options=PerturbedOptions(max_iterations=30,
                                     trisection_rounds=10),
        )
        sim = simulate_schedule(
            topology, result.best_matrix, transitions=2000, seed=1
        )
        assert result.summary()
        assert sim.coverage_shares.shape == (4,)
        assert np.isfinite(sim.delta_c)
