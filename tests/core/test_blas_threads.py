"""A sparse walk's trajectory does not depend on the BLAS thread count.

OpenBLAS runs a long ``ddot`` on several threads, and the split changes
the rounding of the sum; the walk's gradient norm (which scales its
relative noise) is therefore summed in fixed chunks
(:func:`repro.utils.linalg.frobenius_norm`).  At city-grid M = 144 the
derivative has 20,736 entries, past the chunk size, so the same seeded
walk run with one and with two BLAS threads must end bit for bit alike.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np

import repro
from repro.utils.linalg import NORM_CHUNK, frobenius_norm

SCRIPT = """
import hashlib
import numpy as np
from repro import CostWeights, CoverageCost, PerturbedOptions
from repro import scalable_topology
from repro.core.perturbed import optimize_perturbed

cost = CoverageCost(
    scalable_topology("city-grid", 144),
    CostWeights(alpha=1.0, beta=1.0), linalg="sparse",
)
result = optimize_perturbed(
    cost, seed=1,
    options=PerturbedOptions(max_iterations=10, stall_limit=11),
)
digest = hashlib.sha256(result.best_matrix.tobytes())
digest.update(np.float64(result.best_u_eps).tobytes())
for record in result.history:
    digest.update(np.float64(record.u_eps).tobytes())
    digest.update(np.float64(record.gradient_norm).tobytes())
print(digest.hexdigest())
"""


def _walk_digest(threads: int) -> str:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    return completed.stdout.strip()


def test_sparse_walk_is_independent_of_blas_threads():
    assert _walk_digest(1) == _walk_digest(2)


def test_norm_matches_numpy_up_to_one_chunk():
    rng = np.random.default_rng(0)
    for size in (1, 99, NORM_CHUNK):
        array = rng.normal(size=size)
        assert frobenius_norm(array) == float(np.linalg.norm(array))
    matrix = rng.normal(size=(40, 40))
    assert frobenius_norm(matrix) == float(np.linalg.norm(matrix))
    large = rng.normal(size=(144, 144))
    np.testing.assert_allclose(
        frobenius_norm(large), np.linalg.norm(large), rtol=1e-14
    )
