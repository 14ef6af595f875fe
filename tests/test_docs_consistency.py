"""Consistency checks between documentation, CLI, and code."""

import pathlib
import re

import numpy as np
import pytest

import repro
import repro.experiments as ex
from repro.cli import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestCliRegistry:
    def test_every_registered_experiment_is_exported(self):
        for name, function in EXPERIMENTS.items():
            assert function.__name__ in ex.__all__, (
                f"CLI experiment {name!r} maps to "
                f"{function.__name__}, which repro.experiments does "
                "not export"
            )

    def test_all_paper_artifacts_registered(self):
        required = {
            "table1", "table2", "table3", "table4",
            "figure2a", "figure2b", "figure3", "figure4",
            "figure5a", "figure5b", "figure6", "figure7", "figure8",
        }
        assert required <= set(EXPERIMENTS)


class TestDocsExist:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
        "docs/math.md", "docs/performance.md", "docs/simulation.md",
        "docs/api.md", "docs/service.md",
    ])
    def test_file_present_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), f"{name} missing"
        assert path.stat().st_size > 200

    def test_design_mentions_every_subpackage(self):
        design = (ROOT / "DESIGN.md").read_text()
        for subpackage in (
            "geometry", "topology", "markov", "core", "simulation",
            "baselines", "experiments", "multisensor", "analysis",
        ):
            assert subpackage in design

    def test_readme_quickstart_names_exist(self):
        readme = (ROOT / "README.md").read_text()
        for name in (
            "CostWeights", "CoverageCost", "optimize_perturbed",
            "paper_topology", "simulate_schedule",
        ):
            assert name in readme
            assert hasattr(repro, name)


class TestObjectivesDocs:
    def test_every_registered_term_documented(self):
        page = (ROOT / "docs" / "objectives.md").read_text()
        for name in repro.TERM_REGISTRY:
            assert f'`"{name}"`' in page, (
                f"docs/objectives.md does not document term {name!r}"
            )

    def test_objectives_page_names_the_protocol(self):
        page = (ROOT / "docs" / "objectives.md").read_text()
        for needed in (
            "CostTerm", "TermBatch", "build_term", "CostSum",
            "normalize_extra_terms", "grad_pi", "grad_z", "grad_p",
            "batch_value", "--terms", "--weights", "with_extra_terms",
        ):
            assert needed in page, f"docs/objectives.md lost {needed!r}"

    @pytest.mark.parametrize("source", [
        "README.md", "docs/api.md", "docs/math.md",
    ])
    def test_objectives_page_linked(self, source):
        text = (ROOT / source).read_text()
        assert "objectives.md" in text, (
            f"{source} does not link docs/objectives.md"
        )

    def test_mass_cap_example_batch_matches_value(self):
        page = (ROOT / "docs" / "objectives.md").read_text()
        (block,) = [
            code for code in re.findall(r"```python\n(.*?)```", page, re.S)
            if "class MassCapTerm" in code
        ]
        namespace = {}
        exec(block, namespace)
        term = namespace["MassCapTerm"](weight=2.0, cap=0.3)
        rng = np.random.default_rng(3)
        stack = rng.dirichlet(np.full(4, 0.5), size=(3, 4))
        states = [repro.ChainState.from_matrix(p) for p in stack]
        assert any(state.pi.max() > 0.3 for state in states)
        batch = repro.TermBatch(
            pis=np.array([state.pi for state in states]),
            stack=stack,
            diag=np.einsum("kii->ki", stack),
            exposures=np.zeros((3, 4)),
            ok=np.ones(3, dtype=bool),
        )
        np.testing.assert_allclose(
            term.batch_value(batch),
            [term.value(state) for state in states],
            rtol=1e-12,
        )

    def test_cli_term_flags_documented(self):
        api = (ROOT / "docs" / "api.md").read_text()
        assert "--terms" in api and "--weights" in api

    def test_math_derives_each_new_term(self):
        math = (ROOT / "docs" / "math.md").read_text()
        for needed in ("minimax", "kcoverage", "periodicity", "Kac"):
            assert needed in math, f"docs/math.md lost {needed!r}"


class TestSimulationDocs:
    def test_readme_links_simulation_page(self):
        readme = (ROOT / "README.md").read_text()
        assert "docs/simulation.md" in readme

    def test_performance_links_simulation_page(self):
        performance = (ROOT / "docs" / "performance.md").read_text()
        assert "simulation.md" in performance

    def test_simulation_page_names_oracle_and_knobs(self):
        page = (ROOT / "docs" / "simulation.md").read_text()
        for needed in (
            "tests/oracles", "test_engine_equivalence.py",
            "SimulationOptions", "simulate_team", "replay_uniforms",
            "spawn_generators", "grouped_coverage",
            "grouped_union_length", "horizon_interval_stream",
            "simulate_team_repeatedly",
        ):
            assert needed in page, f"docs/simulation.md lost {needed!r}"
        # One simulator per kind: no engine switch left to document.
        assert "--engine" not in page

    def test_multisensor_public_api_documented(self):
        import repro.multisensor as team

        for name in team.__all__:
            member = getattr(team, name)
            assert member.__doc__ and member.__doc__.strip(), (
                f"repro.multisensor.{name} has no docstring"
            )

    def test_team_result_documents_start_state_convention(self):
        from repro.multisensor import TeamSimulationResult, simulate_team

        doc = TeamSimulationResult.__doc__
        # The start-state convention is part of the public contract:
        # each sensor starts at its start PoI at time zero, drawing the
        # start uniformly from its own stream when not given.
        for phrase in ("start", "time zero", "stream", "uniform"):
            assert phrase in doc, (
                f"TeamSimulationResult docstring lost {phrase!r}"
            )
        for phrase in ("starts", "[0, M)", "stream"):
            assert phrase in simulate_team.__doc__


class TestBenchmarkCoverage:
    def test_one_bench_module_per_paper_artifact(self):
        bench_dir = ROOT / "benchmarks"
        names = {p.name for p in bench_dir.glob("test_bench_*.py")}
        for expected in (
            "test_bench_table1.py", "test_bench_table2.py",
            "test_bench_table3.py", "test_bench_table4.py",
            "test_bench_figure2.py", "test_bench_figure3.py",
            "test_bench_figure4.py", "test_bench_figure5.py",
            "test_bench_figure6.py", "test_bench_figure7.py",
            "test_bench_figure8.py", "test_bench_ablations.py",
            "test_bench_extensions.py", "test_bench_baselines.py",
        ):
            assert expected in names
