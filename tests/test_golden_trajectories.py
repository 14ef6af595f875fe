"""Golden optimizer trajectories: exact runs on fixed inputs.

Every paper method (``basic``, ``adaptive``, ``perturbed``) runs on the
dense paper topologies 1-3 and on a city-grid M = 64 under
``linalg="auto"`` (the sparse path); a perturbed descent runs on a
city-grid M = 36 under ``linalg="dense"`` (the shape of a sweep's
city-grid cells: dense states served by the support coverage term);
and ``multistart`` runs in
process (its starts in lockstep) and on the thread backend, both
against the one ``multistart.serial`` record.  The fixture
``golden_trajectories.json`` stores, per run, the sha256 of the final
and best matrices, the reported scalars, the full per-iteration
history, the checkpoint matrices' digests and the hot-path counters,
all recorded by the reference implementation of the three per-method
descent loops.  Any
change to the descent arithmetic, its RNG draw order or its stopping
rules shows up here as an exact mismatch.

Regenerate the fixture (only when a trajectory change is intended) with
``PYTHONPATH=src python tests/test_golden_trajectories.py --write``.
"""

import hashlib
import json
import pathlib
import sys
from dataclasses import asdict

import numpy as np
import pytest

import repro
from repro import CostWeights, CoverageCost
from repro.topology.library import scalable_topology

FIXTURE = pathlib.Path(__file__).with_name("golden_trajectories.json")

#: Hot-path counters pinned per run (``seconds``-type fields vary).
PERF_FIELDS = (
    "factorizations", "state_builds", "states_reused", "batch_calls",
    "batch_matrices", "accepted_steps", "accept_factorizations",
    "dispatch_bytes",
)

BASIC = {"max_iterations": 30, "checkpoint_every": 7}
ADAPTIVE = {"max_iterations": 25, "trisection_rounds": 12,
            "checkpoint_every": 5}
PERTURBED = {"max_iterations": 25, "stall_limit": 10,
             "trisection_rounds": 12, "checkpoint_every": 5}
SPARSE = {"max_iterations": 6, "trisection_rounds": 8,
          "geometric_decades": 6, "checkpoint_every": 3}
MULTISTART = {"max_iterations": 8, "stall_limit": 100,
              "trisection_rounds": 8, "checkpoint_every": 4}


def _paper(index):
    return CoverageCost(
        repro.paper_topology(index), CostWeights(alpha=1.0, beta=1.0)
    )


def _city_grid():
    return CoverageCost(
        scalable_topology("city-grid", 64),
        CostWeights(alpha=1.0, beta=1.0), linalg="auto",
    )


def _dense_city_grid(size):
    return CoverageCost(
        scalable_topology("city-grid", size),
        CostWeights(alpha=1.0, beta=1.0), linalg="dense",
    )


def _cases():
    cases = {}
    for index in (1, 2, 3):
        cases[f"paper{index}-basic"] = (
            _paper, index, "basic", None, BASIC
        )
        cases[f"paper{index}-adaptive"] = (
            _paper, index, "adaptive", 3, ADAPTIVE
        )
        cases[f"paper{index}-perturbed"] = (
            _paper, index, "perturbed", 3, PERTURBED
        )
    cases["paper1-basic-large-step"] = (
        _paper, 1, "basic", None,
        {"max_iterations": 40, "step_size": 1e-2, "patience": 3},
    )
    cases["paper3-basic-bound-limited"] = (
        _paper, 3, "basic", None,
        {"max_iterations": 40, "step_size": 0.5, "patience": 3},
    )
    cases["paper2-basic-gradient-tol"] = (
        _paper, 2, "basic", None, {"gradient_tol": 1e9},
    )
    cases["paper2-adaptive-local-optimum"] = (
        _paper, 2, "adaptive", 0,
        {"max_iterations": 200, "trisection_rounds": 4,
         "geometric_decades": 3},
    )
    for index, cooling_k in ((1, 1e-6), (3, 1e-3)):
        cases[f"paper{index}-perturbed-rejecting"] = (
            _paper, index, "perturbed", 1,
            {"max_iterations": 40, "stall_limit": 8,
             "trisection_rounds": 4, "geometric_decades": 3,
             "cooling_k": cooling_k},
        )
    cases["paper3-perturbed-absolute-noise"] = (
        _paper, 3, "perturbed", 9,
        {"max_iterations": 20, "stall_limit": 100, "sigma": 0.2,
         "relative_noise": False, "trisection_rounds": 8},
    )
    cases["citygrid64-basic"] = (
        _city_grid, None, "basic", None,
        {"max_iterations": 8, "step_size": 1e-4, "checkpoint_every": 3},
    )
    cases["citygrid64-adaptive"] = (
        _city_grid, None, "adaptive", 4, SPARSE
    )
    cases["citygrid64-perturbed"] = (
        _city_grid, None, "perturbed", 4, dict(SPARSE, stall_limit=100)
    )
    cases["citygrid36-dense-perturbed"] = (
        _dense_city_grid, 36, "perturbed", 4,
        dict(PERTURBED, max_iterations=12, stall_limit=100),
    )
    return cases


CASES = _cases()
#: Executors the multi-start golden runs on; all must equal ``serial``.
MULTISTART_CASES = ("serial", "thread")


def _digest(matrix) -> str:
    array = np.ascontiguousarray(np.asarray(matrix, dtype=float))
    return hashlib.sha256(array.tobytes()).hexdigest()


def _record(result) -> dict:
    perf = None
    if result.perf is not None:
        perf = {name: getattr(result.perf, name) for name in PERF_FIELDS}
    return {
        "matrix_sha256": _digest(result.matrix),
        "best_matrix_sha256": _digest(result.best_matrix),
        "u_eps": float(result.u_eps),
        "best_u_eps": float(result.best_u_eps),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "stop_reason": str(result.stop_reason),
        "history": [asdict(record) for record in result.history],
        "checkpoints": [
            [int(iteration), _digest(matrix)]
            for iteration, matrix in result.checkpoints
        ],
        "perf": perf,
    }


def run_case(name: str) -> dict:
    build, index, method, seed, options = CASES[name]
    cost = build(index) if index is not None else build()
    kwargs = {} if seed is None else {"seed": seed}
    result = repro.optimize(cost, method=method, options=options, **kwargs)
    return _record(result)


def run_multistart(execution: str) -> dict:
    outcome = repro.optimize(
        _paper(1), method="multistart", seed=5, options=MULTISTART,
        execution=execution, random_starts=1,
    )
    return {
        "labels": list(outcome.start_labels),
        "best_label": outcome.best_label,
        "runs": [_record(run) for run in outcome.runs],
    }


def capture() -> dict:
    return {
        "cases": {name: run_case(name) for name in CASES},
        "multistart": {"serial": run_multistart("serial")},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)
    assert sorted(golden["multistart"]) == ["serial"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(golden, name):
    expected = golden["cases"][name]
    actual = run_case(name)
    if expected["perf"] is None:
        actual["perf"] = None
    assert actual == expected


@pytest.mark.parametrize("execution", MULTISTART_CASES)
def test_multistart_matches_golden(golden, execution):
    assert run_multistart(execution) == golden["multistart"]["serial"]


def _dumps(golden: dict) -> str:
    """The fixture's JSON with one run per line."""
    sections = []
    for section, runs in golden.items():
        entries = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(run)}"
            for name, run in runs.items()
        )
        sections.append(f" {json.dumps(section)}: {{\n{entries}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_trajectories.py --write")
    FIXTURE.write_text(_dumps(capture()))
    print(f"wrote {FIXTURE}")
