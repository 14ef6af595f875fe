"""The coverage service: fan-in exactly-once, cache bit-identity,
kill-and-resume checkpointing, spool serving, failure accounting."""

import asyncio
import json

import pytest

import repro
from repro.core.api import OPTIMIZER_REGISTRY
from repro.core.options import coerce_options
from repro.core.perturbed import PerturbedWalk, advance_walk
from repro.persist import verify_service_record
from repro.service import (
    CoverageService,
    JobCheckpoint,
    execute_request,
    optimize_request,
    request_digest,
    request_to_dict,
    serve_spool,
    simulation_request,
)
from repro.service.requests import build_cost
from repro.utils.rng import as_generator

OPTIONS = {"max_iterations": 12, "trisection_rounds": 6}


@pytest.fixture(scope="module")
def topology():
    return repro.paper_topology(1)


@pytest.fixture()
def service(tmp_path):
    return CoverageService(tmp_path / "store")


class TestCachePath:
    def test_cache_hit_is_bit_identical_to_recompute(
        self, topology, service
    ):
        request = optimize_request(topology, seed=5, options=OPTIONS)
        computed = service.run(request)
        cached = service.run(request)
        assert cached == computed
        assert cached == execute_request(request)
        assert service.stats.computed == 1
        assert service.stats.cache_hits == 1

    def test_distinct_requests_do_not_collide(self, topology, service):
        a = service.run(optimize_request(topology, seed=0,
                                         options=OPTIONS))
        b = service.run(optimize_request(topology, seed=1,
                                         options=OPTIONS))
        assert a != b
        assert service.stats.computed == 2

    def test_store_record_verifies(self, topology, service):
        request = optimize_request(topology, seed=5, options=OPTIONS)
        payload = service.run(request)
        digest = request_digest(request)
        record = json.loads(
            service.store.path_for(digest).read_text()
        )
        assert verify_service_record(record, digest) == payload
        assert record["kind"] == "optimize"


class TestFanIn:
    def test_concurrent_duplicates_compute_once(
        self, topology, service
    ):
        request = optimize_request(topology, seed=8, options=OPTIONS)
        payloads = service.run([request, request, request, request])
        assert all(p == payloads[0] for p in payloads)
        assert service.stats.submitted == 4
        assert service.stats.computed == 1
        assert service.stats.fan_in_joins == 3
        assert service.stats.cache_hits == 0

    def test_mixed_batch_accounting(self, topology, service):
        a = optimize_request(topology, seed=0, options=OPTIONS)
        b = optimize_request(topology, seed=1, options=OPTIONS)
        service.run([a, a, b])
        assert service.stats.computed == 2
        assert service.stats.fan_in_joins == 1

    def test_joiner_after_completion_hits_cache(
        self, topology, service
    ):
        request = optimize_request(topology, seed=8, options=OPTIONS)
        service.run(request)
        service.run(request)
        assert service.stats.fan_in_joins == 0
        assert service.stats.cache_hits == 1

    def test_failure_reaches_every_waiter_then_resets(
        self, topology, service
    ):
        request = optimize_request(topology, seed=8, options=OPTIONS)

        class Boom(RuntimeError):
            pass

        class FailingExecutor:
            def run_one(self, fn, item):
                raise Boom("compute pool down")

        good_executor = service.executor
        service.executor = FailingExecutor()

        async def both():
            results = await asyncio.gather(
                service.submit(request), service.submit(request),
                return_exceptions=True,
            )
            return results

        results = asyncio.run(both())
        assert all(isinstance(r, Boom) for r in results)
        assert service.stats.failures == 1
        assert service.stats.fan_in_joins == 1
        # the digest is retired: a later submission computes fresh
        service.executor = good_executor
        payload = service.run(request)
        assert payload == execute_request(request)
        assert service.stats.computed == 1


class TestCheckpointResume:
    # ids follow the paper's variant numbering (V1 basic, V2+V3
    # adaptive, V4 perturbed).
    @pytest.mark.parametrize("method,method_options", [
        ("basic", {"step_size": 1e-4, "patience": 100}),
        ("adaptive", {"trisection_rounds": 8}),
        ("perturbed", {"trisection_rounds": 8}),
    ], ids=["V1", "V3", "V4"])
    def test_killed_run_resumes_bit_identically(
        self, topology, service, method, method_options
    ):
        """Drive a walk partway with checkpoints (the 'killed runner'),
        then submit through the service: it must resume from the
        snapshot and deliver the uninterrupted run's exact payload."""
        request = optimize_request(
            topology, method=method, seed=11,
            options=dict(method_options, max_iterations=25),
        )
        reference = execute_request(request)

        checkpoint = service.checkpoint_for(request)
        cost = build_cost(request)
        options = coerce_options(
            OPTIMIZER_REGISTRY[method].options_class,
            request.params["options"], method=method,
        )
        walk = PerturbedWalk(cost, None, as_generator(11), options)
        accepted = 0
        while advance_walk(cost, walk, options):
            if walk.accepted_steps > accepted:
                accepted = walk.accepted_steps
                checkpoint.save(walk.snapshot())
                if accepted >= 2:
                    break  # the "kill"
        assert checkpoint.exists()
        assert not walk.finished

        payload = service.run(request)
        assert payload == reference
        assert not checkpoint.exists(), "checkpoint must clear on finish"

    def test_old_schema_checkpoint_starts_fresh(self, topology, service):
        """A checkpoint of the v1 walk-snapshot schema (no carried
        ``pi``) is treated as absent: the job starts fresh and still
        delivers the reference payload."""
        request = optimize_request(
            topology, seed=11, options={"max_iterations": 25,
                                        "trisection_rounds": 8},
        )
        reference = execute_request(request)
        cost = build_cost(request)
        options = coerce_options(
            OPTIMIZER_REGISTRY["perturbed"].options_class,
            request.params["options"], method="perturbed",
        )
        walk = PerturbedWalk(cost, None, as_generator(11), options)
        for _ in range(3):
            advance_walk(cost, walk, options)
        snapshot = walk.snapshot()
        del snapshot["pi"], snapshot["best_pi"]
        snapshot["schema"] = "repro/walk-snapshot/v1"
        checkpoint = service.checkpoint_for(request)
        checkpoint.save(snapshot)

        assert service.run(request) == reference
        assert not checkpoint.exists()

    def test_saves_after_accepted_steps_at_most_per_interval(
        self, topology, tmp_path, monkeypatch
    ):
        import repro.service.requests as requests_module

        saves = []

        class Recording(JobCheckpoint):
            def save(self, snapshot):
                saves.append(snapshot["accepted_steps"])
                super().save(snapshot)

        request = optimize_request(
            topology, method="basic",
            options={"max_iterations": 5, "step_size": 1e-4},
        )
        reference = execute_request(request)
        checkpoint = Recording(tmp_path / "job.json")
        assert execute_request(request, checkpoint=checkpoint) == reference
        assert saves == []  # a sub-second job never checkpoints
        monkeypatch.setattr(requests_module, "CHECKPOINT_INTERVAL_S", 0.0)
        assert execute_request(request, checkpoint=checkpoint) == reference
        assert saves == [1, 2, 3, 4, 5]
        assert not checkpoint.exists()

    def test_checkpoint_files_are_atomic_and_recoverable(self, tmp_path):
        checkpoint = JobCheckpoint(tmp_path / "job.json")
        assert checkpoint.load() is None
        checkpoint.save({"iteration": 3})
        assert checkpoint.load() == {"iteration": 3}
        checkpoint.save({"iteration": 4})
        assert checkpoint.load() == {"iteration": 4}
        # a torn file degrades to a fresh start, never an error
        checkpoint.path.write_text('{"iteration": 5')
        assert checkpoint.load() is None
        checkpoint.clear()
        assert not checkpoint.exists()

    def test_checkpointing_can_be_disabled(self, topology, tmp_path):
        service = CoverageService(tmp_path / "store", checkpoint=False)
        request = optimize_request(topology, seed=5, options=OPTIONS)
        payload = service.run(request)
        assert payload == execute_request(request)


class TestExecutorBackends:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_payloads_identical_across_backends(
        self, topology, tmp_path, backend
    ):
        service = CoverageService(
            tmp_path / backend, executor=backend, jobs=2
        )
        request = optimize_request(topology, seed=5, options=OPTIONS)
        assert service.run(request) == execute_request(request)


class TestSpool:
    def test_serve_spool_answers_requests(
        self, topology, service, tmp_path
    ):
        spool = tmp_path / "spool"
        spool.mkdir()
        matrix = repro.metropolis_hastings_matrix(
            topology.target_shares
        )
        requests = {
            "opt": optimize_request(topology, seed=5, options=OPTIONS),
            "sim": simulation_request(topology, matrix,
                                      transitions=150, seed=2),
        }
        for name, request in requests.items():
            (spool / f"{name}.json").write_text(
                json.dumps(request_to_dict(request))
            )
        written = serve_spool(service, spool)
        assert sorted(p.name for p in written) == [
            "opt.result.json", "sim.result.json",
        ]
        for name, request in requests.items():
            record = json.loads(
                (spool / f"{name}.result.json").read_text()
            )
            payload = verify_service_record(
                record, request_digest(request)
            )
            assert payload == execute_request(request)

    def test_serve_spool_is_idempotent(self, topology, service,
                                       tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        request = optimize_request(topology, seed=5, options=OPTIONS)
        (spool / "job.json").write_text(
            json.dumps(request_to_dict(request))
        )
        first = serve_spool(service, spool)
        second = serve_spool(service, spool)
        assert len(first) == 1
        assert second == []
        assert service.stats.computed == 1

    def test_empty_spool_is_a_no_op(self, service, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        assert serve_spool(service, spool) == []
