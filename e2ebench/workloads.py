"""The benchmark's four workloads.

Each workload derives its inputs from the run's seed -- the program only
ever sees those inputs -- and splits a round into :meth:`Workload.setup`
(what a user builds before the first job: topologies, costs, geometry,
warmed worker pools), :meth:`Workload.run` (the timed phase: the jobs,
through the public entry points ``repro.optimize``, ``repro.simulate``,
``run_sweep`` and ``CoverageService``) and :meth:`Workload.teardown`.
:meth:`Workload.collect` turns the raw results into :class:`Job`
records after the timed phase, and :meth:`Workload.verify` checks the
first round's outputs against independent references.

Entry points are looked up at call time (``repro.optimize``,
``sweep_driver.run_sweep``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

import repro
from repro.core.cost import CostWeights, CoverageCost
from repro.core.initializers import paper_random_matrix
from repro.exec import ProcessExecutor
from repro.persist import canonical_json
from repro.service import (
    CoverageService,
    execute_request,
    optimize_request,
    request_from_cell,
    simulation_request,
    team_request,
)
from repro.sweep import (
    SweepGrid,
    build_topology,
    cell_digest,
    cell_from_dict,
    iter_sweep_records,
    run_cell,
)
from repro.sweep import driver as sweep_driver
from repro.topology import paper_topology, scalable_topology
from repro.utils import perf

#: Objective weights of the optimize jobs (the paper's alpha = beta = 1).
WEIGHTS = CostWeights(alpha=1.0, beta=1.0)
#: Worker processes, and closed-loop clients of the service: one per
#: core of the 2-core host the benchmark is sized for.
WORKERS = 2
#: A reported U_eps must match a fresh dense re-evaluation to this
#: relative tolerance (sparse-path results agree to ~1e-10).
U_EPS_RTOL = 1e-8
#: Simulated coverage shares must match their reference within
#: ``SHARE_Z`` standard errors plus ``SHARE_ATOL``, PoI by PoI.
SHARE_Z = 7.0
SHARE_ATOL = 1e-3


@dataclass
class Job:
    """One job of a round."""

    key: str
    kind: str
    #: Submission to result, seconds; ``None`` where the program does
    #: not expose it (cells inside one ``run_sweep`` call).
    seconds: Optional[float]
    result: Any = None
    error: Optional[str] = None
    #: Digest of the result; must repeat exactly on every round.
    output: Optional[str] = None
    best_u_eps: Optional[float] = None


def digest_arrays(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def digest_json(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def call_job(key: str, label: str, function, /, *args, **kwargs) -> Job:
    """Run one job and time it; an exception fails the job, not the run."""
    started = time.perf_counter()
    try:
        result = function(*args, **kwargs)
    except Exception as error:  # noqa: BLE001 - counted as a failed job
        return Job(key, label, time.perf_counter() - started,
                   error=repr(error))
    return Job(key, label, time.perf_counter() - started, result=result)


def check_optimum(topology, weights, matrix, reported) -> Optional[str]:
    """Re-evaluate a reported optimum through a fresh dense cost."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.min() < 0.0 or not np.allclose(
        matrix.sum(axis=1), 1.0, rtol=0.0, atol=1e-12
    ):
        return "best matrix is not row-stochastic"
    value = CoverageCost(topology, weights, linalg="dense").value(matrix)
    if not np.isclose(value, reported, rtol=U_EPS_RTOL, atol=0.0):
        return f"dense re-evaluation {value!r} != reported U_eps {reported!r}"
    return None


def mean_and_error(samples):
    """Per-PoI mean and standard error over runs (rows)."""
    samples = np.asarray(samples, dtype=float)
    return (samples.mean(axis=0),
            samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0]))


def check_shares(samples, reference, reference_error=0.0,
                 draws=1) -> Optional[str]:
    """Per-PoI mean of ``samples`` (runs x PoIs) against ``reference``.

    A PoI visited in no run has a sample error of zero; the counting
    error of its reference share over ``draws`` transitions bounds the
    tolerance from below.
    """
    mean, error = mean_and_error(samples)
    counting = np.sqrt(np.maximum(reference, 0.0) / draws)
    bound = SHARE_Z * np.maximum(np.hypot(error, reference_error),
                                 counting) + SHARE_ATOL
    excess = np.abs(mean - reference) - bound
    worst = int(np.argmax(excess))
    if excess[worst] > 0.0:
        return (
            f"PoI {worst}: simulated share {mean[worst]:.5f} vs "
            f"{reference[worst]:.5f} (tolerance {bound[worst]:.5f})"
        )
    return None


def support_dirichlet(support, rng, concentration: float = 4.0):
    """A random row-stochastic matrix on ``support``: Dirichlet rows over
    each row's feasible legs.  Unlike the paper's V2 recipe, which piles
    mass on the last column, it has no near-absorbing PoI, so short
    simulations reach their long-run shares."""
    matrix = np.zeros(support.shape)
    for row, feasible in enumerate(support):
        matrix[row, feasible] = rng.dirichlet(
            np.full(int(feasible.sum()), concentration)
        )
    return matrix


def _worker_pid(_item) -> int:
    time.sleep(0.05)  # long enough for every idle worker to take a task
    return os.getpid()


def warm_pool(executor, timeout: float = 60.0) -> None:
    """Start the pool's workers and wait until each has served a task."""
    seen = set()
    deadline = time.monotonic() + timeout
    while len(seen) < executor.jobs:
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"only {len(seen)} of {executor.jobs} workers started"
            )
        seen.update(executor.map(_worker_pid, range(executor.jobs)))


class Workload:
    """A seeded workload; see the module docstring for the phases."""

    name = ""
    #: Worker processes a round runs at once (for peak memory).
    workers = 0

    def setup(self, workdir):
        raise NotImplementedError

    def run(self, session, tracer):
        raise NotImplementedError

    def teardown(self, session) -> None:
        pass

    def collect(self, session, raw) -> List[Job]:
        raise NotImplementedError

    def tallies(self, session, raw) -> Dict[str, float]:
        """The program's own counts for the timed phase (compared with
        the tracer's in traced rounds)."""
        return {}

    def verify(self, jobs: List[Job]) -> Dict[str, str]:
        """Failure reasons by job key for the first round's jobs."""
        raise NotImplementedError


class _Descent(Workload):
    """Serial perturbed descents: one closed-loop client, no workers."""

    LINALG = "auto"
    ITERATIONS = 0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.jobs = [
            (name, int(rng.integers(2**31)))
            for name in self.job_topologies()
        ]
        self.options = {
            "max_iterations": self.ITERATIONS,
            # No early stop: every seed runs the same iteration count.
            "stall_limit": self.ITERATIONS + 1,
            "record_history": False,
        }

    def job_topologies(self) -> List[str]:
        raise NotImplementedError

    def topology(self, name: str):
        raise NotImplementedError

    def setup(self, workdir):
        return {
            name: CoverageCost(self.topology(name), WEIGHTS,
                               linalg=self.LINALG)
            for name in dict.fromkeys(name for name, _ in self.jobs)
        }

    def run(self, costs, tracer):
        scope = (
            perf.perf_scope() if tracer.enabled
            else contextlib.nullcontext()
        )
        with tracer.root("client"), scope as counters:
            jobs = [
                call_job(
                    f"{index}:{name}", "optimize", repro.optimize,
                    costs[name], method="perturbed", seed=seed,
                    options=self.options,
                )
                for index, (name, seed) in enumerate(self.jobs)
            ]
        return jobs, counters

    def collect(self, costs, raw) -> List[Job]:
        jobs, _ = raw
        for job in jobs:
            if job.result is not None:
                job.best_u_eps = float(job.result.best_u_eps)
                job.output = digest_arrays(
                    [job.result.best_matrix, [job.best_u_eps]]
                )
        return jobs

    def tallies(self, costs, raw):
        _, counters = raw
        if counters is None:
            return {}
        return {
            "cost.batch_calls": counters.batch_calls,
            "markov.state_builds": counters.state_builds,
        }

    def verify(self, jobs):
        failures = {}
        topologies = {}
        for job, (name, _) in zip(jobs, self.jobs):
            if job.result is None:
                continue
            if name not in topologies:
                topologies[name] = self.topology(name)
            problem = check_optimum(
                topologies[name], WEIGHTS, job.result.best_matrix,
                job.best_u_eps,
            )
            if problem:
                failures[job.key] = problem
        return failures


class PaperDescent(_Descent):
    """The paper's own run: perturbed descent on topologies 1-3."""

    name = "paper_descent"
    STARTS = 8
    ITERATIONS = 10

    def job_topologies(self):
        return [f"paper-{i}" for i in (1, 2, 3) for _ in range(self.STARTS)]

    def topology(self, name):
        return paper_topology(int(name.split("-")[1]))


class CitygridSparse(_Descent):
    """Perturbed descent on city-grid M = 576 (``linalg="auto"`` resolves
    to the sparse and incremental ``(pi, Z)`` paths)."""

    name = "citygrid_sparse"
    SIZE = 576
    STARTS = 2
    ITERATIONS = 20

    def job_topologies(self):
        return [f"city-grid-{self.SIZE}"] * self.STARTS

    def topology(self, name):
        return scalable_topology("city-grid", self.SIZE)


class SimFanout(Workload):
    """Single-sensor and team simulations fanned out over a warmed
    2-worker process pool."""

    name = "sim_fanout"
    workers = WORKERS
    SIZE = 64
    MATRICES = 12
    REPETITIONS = 16
    TRANSITIONS = 1500
    SENSORS = 2
    #: About TRANSITIONS transitions of ~18 s each per sensor.
    HORIZON = 27_000.0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        support = scalable_topology("city-grid", self.SIZE).adjacency
        self.matrices = [
            support_dirichlet(support, rng) for _ in range(self.MATRICES)
        ]
        self.seeds = [
            int(s) for s in rng.integers(2**31, size=2 * self.MATRICES)
        ]

    def setup(self, workdir):
        topology = scalable_topology("city-grid", self.SIZE)
        # The geometry of a user's session, cached on the topology: the
        # dense pass-by tensor and the chord table.  Together they take
        # the task payload past the 1 MiB "auto" threshold, so the
        # fan-out ships them once through shared memory.
        topology.passby
        topology.chord_table()
        executor = ProcessExecutor(jobs=WORKERS, transport="auto")
        warm_pool(executor)
        return topology, executor, executor.timings.tasks

    def run(self, session, tracer):
        topology, executor, _ = session
        jobs = []
        with tracer.root("client"):
            for index, matrix in enumerate(self.matrices):
                jobs.append(call_job(
                    f"{index}:single", "single", repro.simulate,
                    topology, matrix, kind="single",
                    transitions=self.TRANSITIONS,
                    seed=self.seeds[2 * index],
                    repetitions=self.REPETITIONS, execution=executor,
                ))
                jobs.append(call_job(
                    f"{index}:team", "team", repro.simulate,
                    topology, matrix, kind="team", horizon=self.HORIZON,
                    sensors=self.SENSORS,
                    seed=self.seeds[2 * index + 1],
                    repetitions=self.REPETITIONS, execution=executor,
                ))
        return jobs

    def teardown(self, session) -> None:
        session[1].close()

    def collect(self, session, jobs) -> List[Job]:
        for job in jobs:
            if job.result is None:
                continue
            if job.kind == "single":
                fields = ("coverage_shares", "physical_coverage_shares",
                          "visit_counts")
            else:
                fields = ("coverage_shares", "per_sensor_shares",
                          "transitions")
            job.output = digest_arrays(
                getattr(run, field) for run in job.result for field in fields
            )
        return jobs

    def tallies(self, session, jobs):
        _, executor, warm_tasks = session
        return {
            "exec.tasks": executor.timings.tasks - warm_tasks,
            "simulation.runs": sum(
                len(job.result) for job in jobs if job.result is not None
            ),
        }

    def verify(self, jobs):
        """Single runs' schedule-convention shares against
        ``CoverageCost.coverage_shares``; team members' physical shares
        against the single runs' physical shares of the same matrix."""
        failures = {}
        cost = CoverageCost(scalable_topology("city-grid", self.SIZE),
                            WEIGHTS)
        draws = self.TRANSITIONS * self.REPETITIONS
        for index, matrix in enumerate(self.matrices):
            single, team = jobs[2 * index], jobs[2 * index + 1]
            if single.result is None:
                continue
            problem = check_shares(
                [run.coverage_shares for run in single.result],
                cost.coverage_shares(matrix), draws=draws,
            )
            if problem:
                failures[single.key] = problem
            if team.result is None:
                continue
            physical, physical_error = mean_and_error(
                [run.physical_coverage_shares for run in single.result]
            )
            problem = check_shares(
                np.concatenate([run.per_sensor_shares for run in team.result]),
                physical, physical_error, draws=draws,
            )
            for run in team.result:
                union = run.coverage_shares
                if np.any(union > 1.0) or np.any(
                    union < run.per_sensor_shares.max(axis=0) - 1e-12
                ):
                    problem = "team union coverage below a member's share"
            if problem:
                failures[team.key] = problem
        return failures


class SweepServe(Workload):
    """A sweep, then a service warmed from it, under two closed-loop
    clients."""

    name = "sweep_serve"
    workers = WORKERS
    CITY = 36
    ITERATIONS = 8
    HITS = 120
    COLD = 6
    TEAMS = 2
    TRANSITIONS = 2000
    HORIZON = 5000.0
    SHARDS = 2
    VERIFY_CELLS = 3

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        first = int(rng.integers(2**31 - 1))
        self.grid = SweepGrid(
            topologies=(
                {"family": "paper", "sizes": [1, 2, 3]},
                {"family": "city-grid", "sizes": [self.CITY]},
            ),
            weights=({"alpha": 1.0, "beta": 1.0},
                     {"alpha": 1.0, "beta": 0.25}),
            seeds=(first, first + 1),
            iterations=self.ITERATIONS,
            include_matrix=True,
        )
        self.cells = self.grid.expand()

        def fresh(kind, topology):
            return (kind, topology, int(rng.integers(2**31)))

        # The seed picks the requests' inputs; the mix and its order are
        # fixed, so latency percentiles compare across seeds.  The stream
        # opens on cold city-grid simulations, each submitted twice back
        # to back: the other client's submission joins the first's
        # computation (fan-in), whose worker rebuilds the geometry from
        # the request JSON.  These 2 * COLD jobs, all the same work, are
        # the slowest, and they outnumber the samples beyond the tail
        # percentile.  Fresh optimize, team and simulate requests
        # (compute plus store writes) follow.  Store reads of imported
        # paper cells are the majority, so the median is a hit; they come
        # in bursts after every computation, spread over the whole phase,
        # because the host's speed drifts and one burst would sample it
        # once.
        cold = [fresh("simulate", f"city-grid-{self.CITY}")
                for _ in range(self.COLD)]
        computed = (
            [fresh("optimize", f"paper-{i}") for i in (1, 2, 3)]
            + [fresh("team", "paper-3") for _ in range(self.TEAMS)]
            + [fresh("simulate", "paper-2")]
        )
        paper_cells = [index for index, cell in enumerate(self.cells)
                       if cell.family == "paper"]
        units = [[spec, spec] for spec in cold] + [[spec] for spec in computed]
        burst = self.HITS // len(units)
        self.specs = []
        for number, unit in enumerate(units):
            self.specs += unit + [
                ("hit", paper_cells[index % len(paper_cells)])
                for index in range(number * burst, (number + 1) * burst)
            ]

    def topologies(self):
        built = {f"paper-{i}": paper_topology(i) for i in (1, 2, 3)}
        built[f"city-grid-{self.CITY}"] = scalable_topology(
            "city-grid", self.CITY
        )
        return built

    def request(self, spec, topologies):
        """The service request a stream entry describes."""
        kind = spec[0]
        if kind == "hit":
            return request_from_cell(self.cells[spec[1]])
        _, name, seed = spec
        topology = topologies[name]
        if kind == "optimize":
            return optimize_request(topology, seed=seed, options={
                "max_iterations": self.ITERATIONS,
                "stall_limit": self.ITERATIONS + 1,
                "record_history": False,
            })
        matrix = paper_random_matrix(topology.size, seed=seed,
                                     support=topology.adjacency)
        if kind == "simulate":
            return simulation_request(topology, matrix,
                                      transitions=self.TRANSITIONS, seed=seed)
        return team_request(topology, [matrix, matrix],
                            horizon=self.HORIZON, seed=seed)

    def setup(self, workdir):
        topologies = self.topologies()
        requests = [self.request(spec, topologies) for spec in self.specs]
        # The service's workers start with its first request, after the
        # sweep's pools have exited: never more than WORKERS at once.
        executor = ProcessExecutor(jobs=WORKERS, transport="auto")
        service = CoverageService(workdir / "store", executor=executor)
        return service, requests, workdir / "sweep"

    def run(self, session, tracer):
        service, requests, out_dir = session
        with tracer.root("sweep"):
            sweep = call_job(
                "sweep", "sweep", sweep_driver.run_sweep, self.grid,
                out_dir, shards=self.SHARDS, backend="process",
                jobs=WORKERS,
            )
            imported = call_job("import", "import", service.import_sweep,
                                out_dir)
        served = asyncio.run(self._clients(service, requests, tracer))
        return sweep, imported, served

    async def _clients(self, service, requests, tracer):
        pending = collections.deque(enumerate(zip(self.specs, requests)))
        served: List[Optional[Job]] = [None] * len(requests)

        async def client():
            with tracer.root("client", weight=1.0 / WORKERS):
                while pending:
                    index, (spec, request) = pending.popleft()
                    key = f"{index}:{spec[0]}"
                    started = time.perf_counter()
                    try:
                        payload = await service.submit(request)
                    except Exception as error:  # noqa: BLE001
                        served[index] = Job(
                            key, spec[0], time.perf_counter() - started,
                            error=repr(error),
                        )
                    else:
                        served[index] = Job(
                            key, spec[0], time.perf_counter() - started,
                            result=payload,
                        )

        await asyncio.gather(*(client() for _ in range(WORKERS)))
        return served

    def teardown(self, session) -> None:
        session[0].executor.close()

    def collect(self, session, raw) -> List[Job]:
        service, requests, out_dir = session
        sweep, imported, served = raw
        records = {}
        if sweep.error is None:
            records = {
                record["digest"]: record
                for record in iter_sweep_records(out_dir)
            }
        jobs = []
        for cell in self.cells:
            digest = cell_digest(cell)
            record = records.get(digest)
            job = Job(f"cell:{digest[:16]}", "cell", None, result=record)
            if record is None:
                job.error = sweep.error or "no record streamed for the cell"
            else:
                job.output = digest_json(record)
                job.best_u_eps = record["result"]["best_u_eps"]
            jobs.append(job)

        stats = service.stats
        computed = len({spec for spec in self.specs if spec[0] != "hit"})
        consistent = (
            stats.submitted == len(requests)
            and stats.computed == computed
            and stats.failures == 0
            and stats.imported == len(self.cells)
            and stats.cache_hits + stats.fan_in_joins + stats.computed
            == stats.submitted
        )
        for job in served:
            if job.result is not None:
                job.output = digest_json(job.result)
                if "matrix" in job.result:
                    job.best_u_eps = job.result["result"]["best_u_eps"]
            if job.error is None and imported.error is not None:
                job.error = f"import_sweep failed: {imported.error}"
            if job.error is None and not consistent:
                job.error = f"service counters inconsistent: {stats}"
        return jobs + served

    def tallies(self, session, raw):
        stats = session[0].stats
        counts = {
            "service.submitted": stats.submitted,
            "service.cache_hits": stats.cache_hits,
            "service.fan_in_joins": stats.fan_in_joins,
            "service.computed": stats.computed,
        }
        if raw[0].result is not None:
            counts["sweep.cells"] = raw[0].result.ran_cells
        return counts

    def verify(self, jobs):
        """Records and optimize payloads re-evaluate to their U_eps;
        sampled records equal a standalone ``run_cell``; the first
        request of each kind equals a direct ``execute_request``."""
        failures = {}
        cells = [job for job in jobs
                 if job.kind == "cell" and job.result is not None]
        for job in cells:
            cell = cell_from_dict(job.result["cell"])
            problem = check_optimum(
                build_topology(cell),
                CostWeights(alpha=cell.alpha, beta=cell.beta,
                            epsilon=cell.epsilon),
                job.result["matrix"], job.result["result"]["best_u_eps"],
            )
            if problem:
                failures[job.key] = problem
        rng = np.random.default_rng(self.seed)
        for index in rng.choice(len(cells), replace=False,
                                size=min(self.VERIFY_CELLS, len(cells))):
            job = cells[index]
            record, matrix = run_cell(cell_from_dict(job.result["cell"]))
            standalone = dict(record, matrix=matrix.tolist())
            if canonical_json(standalone) != canonical_json(job.result):
                failures[job.key] = "record differs from a standalone run_cell"

        topologies = self.topologies()
        served = [job for job in jobs if job.kind != "cell"]
        sampled = set()
        for job, spec in zip(served, self.specs):
            if job.result is None:
                continue
            request = self.request(spec, topologies)
            problem = None
            if request.kind == "optimize":
                params = request.params
                problem = check_optimum(
                    request.topology,
                    CostWeights(alpha=params["alpha"], beta=params["beta"],
                                epsilon=params["epsilon"]),
                    job.result["matrix"],
                    job.result["result"]["best_u_eps"],
                )
            if problem is None and spec[0] not in sampled:
                sampled.add(spec[0])
                direct = execute_request(request)
                if canonical_json(direct) != canonical_json(job.result):
                    problem = "payload differs from a direct execute_request"
            if problem:
                failures[job.key] = problem
        return failures


WORKLOADS = {
    workload.name: workload
    for workload in (PaperDescent, CitygridSparse, SimFanout, SweepServe)
}
