"""The benchmark's batch counters see every batched cost evaluation.

``e2ebench/tracer.py`` counts ``cost.batch_calls`` and
``cost.batch_matrices`` by wrapping ``CoverageCost.batch_evaluate``
(``len`` of its stack argument, nonzero batches only) and checks them
against the program's own ``perf`` tallies.  A line search that reached
the chain solves some other way would leave the traced counts short and
``cost.batch_s`` at zero; this test installs only the cost and line
search targets, runs a sparse descent, and compares the two counts.
"""

from repro import CostWeights, CoverageCost, PerturbedOptions
from repro.core.perturbed import optimize_perturbed
from repro.topology.library import scalable_topology
from repro.utils import perf
from tests.test_e2ebench_targets import _load_tracer


def test_batch_counts_are_traced_on_the_sparse_path():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer().install(
        [
            t for t in tracer_module.TARGETS
            if t.layer in ("cost", "linesearch")
        ]
    )
    try:
        cost = CoverageCost(
            scalable_topology("city-grid", 64), CostWeights(),
            linalg="sparse",
        )
        with perf.perf_scope() as counters:
            optimize_perturbed(
                cost, seed=1, options=PerturbedOptions(max_iterations=3)
            )
    finally:
        tracer.uninstall()
    traced = tracer.snapshot()["counters"]
    assert counters.batch_calls > 0 and counters.batch_matrices > 0
    assert traced["cost.batch_calls"] == counters.batch_calls
    assert traced["cost.batch_matrices"] == counters.batch_matrices
