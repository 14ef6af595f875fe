"""What a fresh interpreter and a spawned worker import.

Dense descents, simulations and team runs never solve against a sparse
or factored core, so neither the package import nor such a task may
load scipy: every process-backend worker would pay for it at start-up.
The sparse path still loads it, on first use.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np

import repro
from repro import paper_topology
from repro.core.initializers import uniform_matrix
from repro.exec import ProcessExecutor
from repro.sweep.grid import SweepCell, run_cell

SRC = pathlib.Path(repro.__file__).resolve().parents[1]


def _scipy_modules(_=None):
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


def _run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _simulate(kind):
    topology = paper_topology(1)
    matrix = uniform_matrix(topology.size)
    if kind == "single":
        result = repro.simulate(topology, matrix, transitions=300, seed=4)
    else:
        result = repro.simulate(
            topology, matrix, kind="team", horizon=200.0, sensors=2,
            seed=4,
        )
    return type(result).__name__


def test_package_import_loads_no_scipy():
    out = _run_fresh("""
        import json, sys
        import repro, repro.service, repro.sweep
        print(json.dumps(
            [m for m in sys.modules if m.split(".")[0] == "scipy"]
        ))
    """)
    assert json.loads(out) == []


def test_dense_worker_tasks_load_no_scipy():
    cell = SweepCell(
        family="paper", size=1, phi="paper", phi_alpha=0.0, phi_seed=0,
        alpha=1.0, beta=1.0, epsilon=1e-4, method="perturbed", seed=3,
        iterations=4, starts=1, trisection_rounds=20, linalg="auto",
    )
    with ProcessExecutor(jobs=1) as executor:
        [(record, matrix)] = executor.map(run_cell, [cell])
        kinds = executor.map(_simulate, ["single", "team"])
        [loaded] = executor.map(_scipy_modules, [None])
    assert record["result"]["u_eps"] > 0.0
    assert matrix.shape == (4, 4)
    assert all(kinds)
    assert loaded == []


def test_auto_linalg_still_takes_the_sparse_path():
    out = _run_fresh("""
        import json, sys
        import numpy as np
        from repro import CostWeights, CoverageCost
        from repro.core.initializers import paper_random_matrix
        from repro.topology.library import scalable_topology

        topology = scalable_topology("city-grid", 144, seed=5)
        cost = CoverageCost(
            topology, CostWeights(alpha=1.0, beta=1e-3), linalg="auto"
        )
        matrix = paper_random_matrix(
            cost.size, seed=9, support=cost.support
        )
        state = cost.build_state(matrix)
        gradient = cost.projected_gradient(state)
        dense = cost.with_linalg("dense")
        print(json.dumps({
            "resolved": cost.resolved_linalg,
            "state": state.linalg,
            "splu_loaded": "scipy.sparse.linalg" in sys.modules,
            "sparse_value": cost.value(matrix),
            "dense_value": dense.value(matrix),
            "gradients_close": bool(np.allclose(
                gradient,
                dense.projected_gradient(dense.build_state(matrix)),
                rtol=1e-6, atol=0.0,
            )),
        }))
    """)
    seen = json.loads(out)
    assert seen["resolved"] == "sparse"
    assert seen["state"] == "sparse"
    assert seen["splu_loaded"]
    np.testing.assert_allclose(
        seen["sparse_value"], seen["dense_value"], rtol=1e-10
    )
    assert seen["gradients_close"]
