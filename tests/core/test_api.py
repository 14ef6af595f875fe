"""The ``repro.optimize`` façade: routing, options coercion, snapshot.

The façade's contract is "routing only": for every registered method,
``optimize(cost, method=m, ...)`` must be *bit-identical* to calling the
method's function directly with the same arguments — same best value,
same matrix bytes, same history.  These tests pin that, plus the
options-dict coercion rules and the public-API surface the façade adds.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    OPTIMIZER_REGISTRY,
    AdaptiveOptions,
    BasicDescentOptions,
    MirrorOptions,
    OptimizerOptions,
    OptimizerSpec,
    PerturbedOptions,
    SearchOptions,
    coerce_options,
    optimize,
    optimize_adaptive,
    optimize_basic,
    optimize_mirror,
    optimize_multistart,
    optimize_perturbed,
)


def _same_result(a, b):
    assert a.u_eps == b.u_eps
    assert a.best_u_eps == b.best_u_eps
    assert a.best_matrix.tobytes() == b.best_matrix.tobytes()
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.iterations == b.iterations
    assert a.stop_reason == b.stop_reason
    assert a.history == b.history


class TestFacadeEquivalence:
    """optimize(method=...) is bit-identical to each direct call."""

    def test_basic(self, cost_both):
        direct = optimize_basic(
            cost_both, options=BasicDescentOptions(max_iterations=40)
        )
        routed = optimize(
            cost_both, method="basic", options={"max_iterations": 40}
        )
        _same_result(direct, routed)

    def test_adaptive(self, cost_both):
        direct = optimize_adaptive(
            cost_both, seed=7,
            options=AdaptiveOptions(max_iterations=10),
        )
        routed = optimize(
            cost_both, method="adaptive", seed=7,
            options={"max_iterations": 10},
        )
        _same_result(direct, routed)

    def test_mirror(self, cost_both):
        direct = optimize_mirror(
            cost_both, options=MirrorOptions(max_iterations=10)
        )
        routed = optimize(
            cost_both, method="mirror", options={"max_iterations": 10}
        )
        _same_result(direct, routed)

    def test_perturbed(self, cost_both):
        direct = optimize_perturbed(
            cost_both, seed=7,
            options=PerturbedOptions(max_iterations=12, stall_limit=100),
        )
        routed = optimize(
            cost_both, method="perturbed", seed=7,
            options={"max_iterations": 12, "stall_limit": 100},
        )
        _same_result(direct, routed)

    def test_perturbed_with_initial(self, cost_both):
        initial = repro.uniform_matrix(cost_both.size)
        direct = optimize_perturbed(
            cost_both, initial=initial, seed=3,
            options=PerturbedOptions(max_iterations=8, stall_limit=100),
        )
        routed = optimize(
            cost_both, method="perturbed", initial=initial, seed=3,
            options=PerturbedOptions(max_iterations=8, stall_limit=100),
        )
        _same_result(direct, routed)

    def test_multistart(self, cost_both):
        opts = PerturbedOptions(max_iterations=6, stall_limit=100)
        direct = optimize_multistart(
            cost_both, random_starts=2, seed=3, options=opts
        )
        routed = optimize(
            cost_both, method="multistart", seed=3, options=opts,
            random_starts=2,
        )
        assert direct.start_labels == routed.start_labels
        assert direct.best_label == routed.best_label
        for run_a, run_b in zip(direct.runs, routed.runs):
            _same_result(run_a, run_b)


class TestFacadeErrors:
    def test_unknown_method_lists_registry(self, cost_both):
        with pytest.raises(ValueError, match="multistart"):
            optimize(cost_both, method="newton")

    def test_seed_rejected_for_deterministic_method(self, cost_both):
        with pytest.raises(ValueError, match="seed"):
            optimize(cost_both, method="basic", seed=1)

    def test_initial_rejected_for_multistart(self, cost_both):
        with pytest.raises(ValueError, match="initial"):
            optimize(
                cost_both, method="multistart",
                initial=repro.uniform_matrix(cost_both.size),
            )

    def test_execution_rejected_outside_multistart(self, cost_both):
        with pytest.raises(ValueError, match="execution"):
            optimize(cost_both, method="perturbed", execution="serial")

    def test_unknown_keyword_named(self, cost_both):
        with pytest.raises(ValueError, match="frobnicate"):
            optimize(cost_both, method="perturbed", frobnicate=2)

    def test_unknown_option_key_named(self, cost_both):
        with pytest.raises(ValueError, match="bogus"):
            optimize(
                cost_both, method="perturbed", options={"bogus": 1}
            )

    def test_wrong_options_class_rejected(self, cost_both):
        with pytest.raises(TypeError, match="PerturbedOptions"):
            optimize(
                cost_both, method="perturbed",
                options=MirrorOptions(max_iterations=5),
            )


class TestCoerceOptions:
    def test_none_passes_through(self):
        assert coerce_options(PerturbedOptions, None) is None

    def test_instance_passes_through(self):
        opts = AdaptiveOptions(max_iterations=3)
        assert coerce_options(AdaptiveOptions, opts) is opts

    def test_mapping_builds_instance(self):
        opts = coerce_options(
            PerturbedOptions, {"max_iterations": 9, "sigma": 0.0}
        )
        assert isinstance(opts, PerturbedOptions)
        assert opts.max_iterations == 9
        assert opts.sigma == 0.0

    def test_unknown_keys_all_named(self):
        with pytest.raises(ValueError) as err:
            coerce_options(
                BasicDescentOptions,
                {"max_iterations": 5, "zig": 1, "zag": 2},
            )
        assert "zag" in str(err.value) and "zig" in str(err.value)
        assert "max_iterations" in str(err.value)  # valid set shown

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError):
            coerce_options(PerturbedOptions, 42)

    def test_shared_base_fields(self):
        """All optimizer options share the common base fields."""
        for spec in OPTIMIZER_REGISTRY.values():
            assert issubclass(spec.options_class, OptimizerOptions)
            opts = spec.options_class()
            for name in (
                "max_iterations", "rtol", "record_history",
                "checkpoint_every",
            ):
                assert hasattr(opts, name)
        assert issubclass(AdaptiveOptions, SearchOptions)
        assert issubclass(PerturbedOptions, SearchOptions)
        assert issubclass(MirrorOptions, SearchOptions)


class TestRegistry:
    def test_registry_snapshot(self):
        assert list(OPTIMIZER_REGISTRY) == [
            "basic", "adaptive", "mirror", "perturbed", "multistart"
        ]

    def test_specs_are_complete(self):
        for name, spec in OPTIMIZER_REGISTRY.items():
            assert isinstance(spec, OptimizerSpec)
            assert spec.name == name
            assert callable(spec.func)
            assert spec.summary

    def test_direct_entry_points_still_importable(self):
        from repro.core.mirror import optimize_mirror  # noqa: F401
        from repro.core.multistart import optimize_multistart  # noqa
        from repro.core.perturbed import (  # noqa: F401
            optimize_adaptive,
            optimize_basic,
            optimize_perturbed,
        )


class TestPublicApiSnapshot:
    """The façade's additions to the ``repro`` namespace, pinned."""

    def test_facade_names_exported(self):
        for name in (
            "optimize", "OPTIMIZER_REGISTRY", "OptimizerSpec",
            "OptimizerOptions", "SearchOptions", "coerce_options",
            "MultiRayBatch",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_all_snapshot(self):
        """Full ``repro.__all__`` snapshot — additions must be
        deliberate."""
        assert sorted(repro.__all__) == sorted([
            "__version__",
            # core
            "ChainState", "CostBreakdown", "CostWeights", "CoverageCost",
            "IterationRecord", "OptimizationResult",
            "BasicDescentOptions", "AdaptiveOptions", "PerturbedOptions",
            "optimize_basic", "optimize_adaptive", "optimize_perturbed",
            "optimize_mirror", "MirrorOptions",
            "uniform_matrix", "paper_random_matrix", "dirichlet_matrix",
            "damped_baseline_matrix",
            "MultiStartResult", "optimize_multistart", "MultiRayBatch",
            # façade
            "optimize", "OptimizerSpec", "OPTIMIZER_REGISTRY",
            "OptimizerOptions", "SearchOptions", "coerce_options",
            # cost-term registry
            "CostTerm", "TermBatch", "TermSpec", "TERM_REGISTRY",
            "CostSum", "ScaledTerm", "build_term",
            "normalize_extra_terms", "WorstExposureTerm",
            "KCoverageShortfallTerm", "PeriodicityTerm",
            # exec
            "BACKENDS", "Executor", "SerialExecutor", "ThreadExecutor",
            "ProcessExecutor", "get_executor", "using_executor",
            # markov
            "MarkovChain",
            # topology
            "PoI", "Topology", "grid_topology", "line_topology",
            "paper_topology", "random_topology", "PAPER_TOPOLOGY_IDS",
            "city_grid_topology", "ring_of_grids_topology",
            "scalable_topology", "SCALABLE_FAMILIES",
            # simulation
            "SimulationOptions", "SimulationResult", "simulate_schedule",
            # simulation façade
            "simulate", "SimulatorSpec", "SIMULATOR_REGISTRY",
            "TeamOptions",
            # baselines
            "metropolis_hastings_matrix", "max_entropy_matrix",
            "uniform_policy_matrix", "proportional_matrix",
            "nearest_neighbor_matrix",
        ])
