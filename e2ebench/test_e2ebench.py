"""Self-tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest e2ebench``.
"""

import asyncio
import json
import pathlib
import subprocess
import sys
import time
import types

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from repro.service import request_digest  # noqa: E402
from repro.sweep import cell_digest  # noqa: E402


@pytest.mark.parametrize("count, percentile, beyond", [
    (100, 90, 10), (48, 79, 10), (21, 52, 10), (20, 50, 10), (12, 50, 6),
    (1, 50, 0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(
    count, percentile, beyond
):
    samples = list(range(count, 0, -1))  # unsorted on purpose
    value, got_percentile, got_beyond = measure.tail_percentile(samples)
    assert (got_percentile, got_beyond) == (percentile, beyond)
    assert sum(sample > value for sample in samples) == beyond


@pytest.mark.skipif(not pathlib.Path("/proc/self/task").is_dir(),
                    reason="needs Linux /proc")
def test_stop_children_ends_and_reaps_every_child():
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(60)"])
    assert child.pid in measure._child_pids()
    started = time.monotonic()
    measure.stop_children(grace=0.5)
    assert child.pid not in measure._child_pids()
    assert time.monotonic() - started < 5.0


def test_job_latency_is_its_best_over_rounds():
    def round_of(*seconds):
        return types.SimpleNamespace(jobs=[
            workloads.Job(f"{index}:job", "job", value)
            for index, value in enumerate(seconds)
        ])

    rounds = [round_of(0.3, 0.1, None), round_of(0.2, 0.4, None)]
    assert sorted(run.best_latencies(rounds)) == [0.1, 0.2]


FAKE = "e2ebench_fake_layers"
FAKE_TARGETS = (
    tracing.Target(FAKE, "inner", "low", "inner"),
    tracing.Target(FAKE, "outer", "high", "outer"),
)


@pytest.fixture
def fake_layers(monkeypatch):
    module = types.ModuleType(FAKE)

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        module.inner()
        module.inner()

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, FAKE, module)
    return module


def test_self_time_is_span_minus_child_spans(fake_layers):
    original = fake_layers.outer
    tracer = tracing.Tracer().install(FAKE_TARGETS)
    try:
        with tracer.root("test"):
            fake_layers.outer()
    finally:
        tracer.uninstall()
    assert fake_layers.outer is original
    calls, total, own, _ = tracer.spans["high.outer"]
    inner_calls, inner_total, inner_own, _ = tracer.spans["low.inner"]
    assert (calls, inner_calls) == (1, 2)
    assert own == pytest.approx(total - inner_total, abs=1e-12)
    assert inner_own == inner_total
    _, root_total, root_own, _ = tracer.spans["bench.test"]
    assert root_own + own + inner_own == pytest.approx(root_total, abs=1e-12)


def test_concurrent_clients_nest_threads_and_split_by_weight(fake_layers):
    tracer = tracing.Tracer().install(FAKE_TARGETS)

    async def client():
        with tracer.root("client", weight=0.5):
            await asyncio.to_thread(fake_layers.outer)

    async def clients():
        await asyncio.gather(client(), client())

    try:
        asyncio.run(clients())
    finally:
        tracer.uninstall()
    calls, total, own, weighted = tracer.spans["high.outer"]
    assert calls == 2 and weighted == pytest.approx(own / 2)
    _, root_total, root_own, _ = tracer.spans["bench.client"]
    assert root_own == pytest.approx(root_total - total, abs=1e-9)


def _sweep_inputs(seed):
    workload = workloads.SweepServe(seed)
    topologies = workload.topologies()
    return (
        [cell_digest(cell) for cell in workload.cells],
        [request_digest(workload.request(spec, topologies))
         for spec in workload.specs],
    )


def test_same_seed_same_cells_and_request_digests():
    assert _sweep_inputs(7) == _sweep_inputs(7)


def test_other_seed_other_cells_and_request_digests():
    cells, requests = _sweep_inputs(7)
    other_cells, other_requests = _sweep_inputs(8)
    assert not set(cells) & set(other_cells)
    assert not set(requests) & set(other_requests)


@pytest.mark.parametrize("name", ["paper_descent", "citygrid_sparse"])
def test_descent_inputs_follow_the_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(3).jobs == make(3).jobs != make(4).jobs


def test_simulation_inputs_follow_the_seed():
    def inputs(seed):
        workload = workloads.SimFanout(seed)
        return workloads.digest_arrays(workload.matrices), workload.seeds

    assert inputs(3) == inputs(3)
    assert inputs(3)[0] != inputs(4)[0]


def test_share_check_states_its_tolerance():
    reference = np.full(4, 0.25)
    same = np.full((8, 4), 0.25)
    assert workloads.check_shares(same, reference, draws=10_000) is None
    assert "tolerance" in workloads.check_shares(
        same + 0.05, reference, draws=10_000
    )
    # An unvisited PoI is judged by the counting error of its share.
    rare = np.array([1e-3, 0.999])
    assert workloads.check_shares(
        np.tile([0.0, 1.0], (8, 1)), rare, draws=10_000
    ) is None


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
