#!/usr/bin/env python3
"""End-to-end benchmark of the coverage stack on four user workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload paper_descent --seed 1 \\
        --seconds 25 --trace 0

A run repeats *rounds* until ``--seconds`` have passed, and at least
:data:`MIN_ROUNDS` times.  A round sets up (topologies, costs, geometry,
worker pools), runs the workload's jobs through the public entry points
-- the timed phase -- and tears down; every round uses the same inputs,
which the seed generates (``workloads.py``).  After the last round every
job's output is verified outside the timed phase, and outputs must
repeat exactly on every round.

``--trace 0`` reports the end-to-end metrics: each time is the best over
the rounds, and a job's latency is its best over the rounds (see
:func:`end_to_end` for why).  ``--trace 1`` alternates untraced and
traced rounds and reports per-layer metrics from the traced ones
(``tracer.py``): counts and self times per layer, each layer's share of
wall time, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a readable report.  The exit code is nonzero when a job failed
or failed verification, when a traced count disagrees with the
program's own tally, or when the layers account for less than
:data:`MIN_ATTRIBUTED` of traced wall time.  ``--out FILE`` also writes
the report, the machine stamp and the per-round figures as JSON.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import os
import pathlib
import shutil
import sys
import time
from dataclasses import dataclass
from typing import List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"e2ebench: no package at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))
# One BLAS thread per process, set before numpy loads (worker processes
# inherit it): the pools already use both cores, and idle BLAS threads
# spinning beside them made timings swing by up to 2x.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import measure  # noqa: E402

if __name__ == "__main__":
    # Registered before ``repro`` loads, so it runs after repro's own
    # exit handlers (which may still touch shared memory, restarting the
    # resource tracker): the run's last act is to stop every process it
    # started and wait for each, on every way out.
    atexit.register(measure.stop_children)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__mp_main__" and os.environ.get(tracing.TRACE_ENV):
    # A worker process spawned during a traced round: trace it as well.
    tracing.install_worker(os.environ[tracing.TRACE_ENV]).count(
        "exec.pool_start_s", measure.process_age_seconds()
    )

#: Rounds per run, at least: the best needs several, and a traced run
#: alternates untraced and traced rounds.
MIN_ROUNDS = 3
MIN_TRACED_RUN_ROUNDS = 4
#: Share of traced wall time the named layers must account for.
MIN_ATTRIBUTED = 0.9
#: What a command-line run imports before its first job.
IMPORTS = ("repro", "repro.service", "repro.sweep")
#: Scratch space inside the checkout, removed after the run.
WORK_DIR = ".e2ebench_work"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``): name -> unit, per traced round.
PER_LAYER = {
    "topology.passby_s": "s",
    "topology.passby_calls": "count",
    "topology.chord_s": "s",
    "topology.chord_builds": "count",
    "markov.state_build_s": "s",
    "markov.state_builds": "count",
    "markov.factorizations": "count",
    "markov.sparse_factorizations": "count",
    "markov.incremental_updates": "count",
    "markov.incremental_refactorizations": "count",
    "markov.incremental_hit_ratio": "ratio",
    "cost.evaluate_s": "s",
    "cost.evaluate_calls": "count",
    "cost.gradient_s": "s",
    "cost.gradient_calls": "count",
    "cost.batch_s": "s",
    "cost.batch_calls": "count",
    "cost.batch_matrices": "count",
    "cost.matrices_per_batch": "ratio",
    "cost.batch_feasible_ratio": "ratio",
    "linesearch.rays": "count",
    "linesearch.probes_per_iteration": "ratio",
    "optimizer.iterations": "count",
    "optimizer.accepted_ratio": "ratio",
    "optimizer.iterations_per_s": "1/s",
    "optimizer.best_u_eps": "U_eps",
    "simulation.single_s": "s",
    "simulation.single_runs": "count",
    "simulation.team_s": "s",
    "simulation.team_runs": "count",
    "simulation.transitions_per_s": "1/s",
    "exec.tasks": "count",
    "exec.dispatch_bytes": "bytes",
    "exec.dispatch_s": "s",
    "exec.result_bytes": "bytes",
    "exec.task_s": "s",
    "exec.wait_s": "s",
    "exec.pool_start_s": "s",
    "exec.broadcast_hit_ratio": "ratio",
    "sweep.cells": "count",
    "sweep.cell_s": "s",
    "sweep.write_s": "s",
    "sweep.skipped_cells": "count",
    "service.submitted": "count",
    "service.cache_hits": "count",
    "service.fan_in_joins": "count",
    "service.computed": "count",
    "service.hit_ratio": "ratio",
    "service.digest_s": "s",
    "service.store_get_s": "s",
    "service.store_put_s": "s",
    "service.import_s": "s",
    "service.queue_wait_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    **{f"{layer}.wall_share": "ratio" for layer in tracing.LAYERS},
    "trace.attributed_share": "ratio",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "verify.failed_frac": "ratio",
}


def _calls(snapshot, *keys):
    return sum(snapshot["spans"].get(key, [0])[0] for key in keys)


def _counter(snapshot, key):
    return snapshot["counters"].get(key, 0)


#: How a traced round sees each program tally a workload reports.
TRACED_TALLIES = {
    "cost.batch_calls": lambda s: _counter(s, "cost.batch_calls"),
    "markov.state_builds": lambda s: _calls(s, "markov.state_build"),
    "exec.tasks": lambda s: _counter(s, "exec.tasks"),
    "simulation.runs": lambda s: _calls(
        s, "simulation.single", "simulation.team"),
    "sweep.cells": lambda s: _calls(s, "sweep.cell"),
    "service.submitted": lambda s: _calls(s, "service.submit"),
    "service.cache_hits": lambda s: _counter(s, "service.store_hits"),
    "service.fan_in_joins": lambda s: _counter(s, "service.fan_in_joins"),
    "service.computed": lambda s: _calls(s, "service.compute"),
}


@dataclass
class Round:
    index: int
    traced: bool
    setup_s: float
    wall_s: float
    cpu_s: float
    jobs: list
    tallies: dict
    timed: dict    # driver spans and counters of the timed phase
    whole: dict    # driver spans and counters of the whole round
    workers: dict  # worker processes' spans and counters
    stores: list   # (broadcast requests, broadcast hits) per shm store


def run_round(workload, index: int, traced: bool,
              workroot: pathlib.Path) -> Round:
    directory = workroot / f"round-{index}"
    worker_dir = directory / "workers"
    worker_dir.mkdir(parents=True)
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    if traced:
        os.environ[tracing.TRACE_ENV] = str(worker_dir)
        tracer.install()
    clock = measure.CpuClock()
    try:
        started = time.perf_counter()
        session = workload.setup(directory)
        setup_s = time.perf_counter() - started
        try:
            before = tracer.snapshot()
            clock.start()
            started = time.perf_counter()
            raw = workload.run(session, tracer)
            wall_s = time.perf_counter() - started
            clock.stop_driver()
            timed = tracing.diff(tracer.snapshot(), before)
        finally:
            workload.teardown(session)
        clock.stop_workers()
        whole = tracer.snapshot()
        stores = [(store.broadcast_requests, store.broadcast_hits)
                  for store in tracer.stores]
    finally:
        if traced:
            tracer.uninstall()
            del os.environ[tracing.TRACE_ENV]
    jobs = workload.collect(session, raw)
    return Round(
        index=index, traced=traced, setup_s=setup_s, wall_s=wall_s,
        cpu_s=clock.total, jobs=jobs,
        tallies=workload.tallies(session, raw), timed=timed, whole=whole,
        workers=tracing.read_workers(worker_dir), stores=stores,
    )


def run_rounds(workload, seconds: float, trace: bool,
               workroot: pathlib.Path) -> List[Round]:
    rounds: List[Round] = []
    minimum = MIN_TRACED_RUN_ROUNDS if trace else MIN_ROUNDS
    started = time.perf_counter()
    while len(rounds) < minimum or time.perf_counter() - started < seconds:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(workload, len(rounds), traced, workroot))
        if len(rounds) > 1:
            for job in rounds[-1].jobs:
                job.result = None  # only round 0 is verified in depth
    return rounds


def verify_rounds(workload, rounds) -> Tuple[int, int, List[str]]:
    """Count attempted and failed jobs: errors, verification failures
    of round 0, and outputs differing from round 0's."""
    reference = {job.key: job.output for job in rounds[0].jobs}
    reasons = workload.verify(rounds[0].jobs)
    attempted = failed = 0
    problems = []
    for rnd in rounds:
        for job in rnd.jobs:
            attempted += 1
            reason = job.error or reasons.get(job.key)
            if reason is None and job.output != reference.get(job.key):
                reason = "output differs from round 0"
            if reason is not None:
                failed += 1
                problems.append(f"round {rnd.index} job {job.key}: {reason}")
    return attempted, failed, problems


def tally_problems(rounds) -> List[str]:
    """Traced counts that disagree with the program's own tallies."""
    problems = []
    for rnd in rounds:
        if not rnd.traced:
            continue
        seen = tracing.add_snapshot(
            tracing.add_snapshot(tracing.empty_snapshot(), rnd.timed),
            rnd.workers,
        )
        for name, expected in rnd.tallies.items():
            traced = TRACED_TALLIES[name](seen)
            if traced != expected:
                problems.append(
                    f"round {rnd.index}: traced {name} = {traced}, the "
                    f"program counted {expected}"
                )
    return problems


def best_u_eps(rounds) -> float:
    """Sum of the final best U_eps over one round's optimize results."""
    return sum(job.best_u_eps for job in rounds[0].jobs
               if job.best_u_eps is not None)


def best_latencies(rounds) -> List[float]:
    """Each timed job's least latency over the rounds, which all run the
    same jobs on the same inputs."""
    best = {}
    for rnd in rounds:
        for job in rnd.jobs:
            if job.seconds is not None:
                best[job.key] = min(best.get(job.key, job.seconds),
                                    job.seconds)
    return list(best.values())


def end_to_end(rounds, import_s: float, peak_mb: float):
    """End-to-end metrics: each time is the best over the rounds.

    Other tenants of a shared host slow rounds at random, by up to half
    and for seconds to minutes at a time, so a median over one run's
    rounds drifts with their load; the best round is the figure that
    repeats best from run to run.
    """
    latencies = best_latencies(rounds)
    tail, percentile, beyond = measure.tail_percentile(latencies)
    setup = min(rnd.setup_s for rnd in rounds)
    values = {
        "setup_s": import_s + setup,
        "wall_s": min(rnd.wall_s for rnd in rounds),
        "jobs_per_s": max(len(rnd.jobs) / rnd.wall_s for rnd in rounds),
        "job_p50_s": measure.nearest_rank(latencies, 50)[0],
        "job_tail_s": tail,
        "cpu_s": min(rnd.cpu_s for rnd in rounds),
        "peak_rss_mb": peak_mb,
    }
    notes = {
        "setup_s": f"imports {import_s:.3f} s (fresh interpreter, best "
                   f"of {measure.IMPORT_REPEATS}) + round set-up "
                   f"{setup:.3f} s (best of {len(rounds)})",
        "wall_s": f"first job submitted to last result, best of "
                  f"{len(rounds)} rounds",
        "jobs_per_s": f"{len(rounds[0].jobs)} jobs per round / wall_s, "
                      "best round",
        "job_p50_s": f"p50 (nearest rank) of {len(latencies)} jobs' best "
                     "latency over the rounds",
        "job_tail_s": f"p{percentile} of {len(latencies)} jobs' best "
                      f"latency, {beyond} beyond it",
        "cpu_s": "driver + worker user+system CPU of the timed phase, "
                 "best round",
        "peak_rss_mb": "driver peak RSS + workers x largest worker peak",
    }
    lines = [
        f"{name:<14}{values[name]:>12.4f} {END_TO_END[name]:<4} {notes[name]}"
        for name in END_TO_END
    ]
    return values, END_TO_END, lines


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(rounds, quality: float):
    traced = [rnd for rnd in rounds if rnd.traced]
    plain = [rnd for rnd in rounds if not rnd.traced]
    n = len(traced)
    seen = tracing.empty_snapshot()   # driver whole rounds + workers
    timed = tracing.empty_snapshot()  # driver timed phases
    for rnd in traced:
        tracing.add_snapshot(seen, rnd.whole)
        tracing.add_snapshot(seen, rnd.workers)
        tracing.add_snapshot(timed, rnd.timed)

    def field(key, index):
        entry = seen["spans"].get(key)
        return entry[index] / n if entry else 0.0

    def calls(key):
        return field(key, 0)

    def total(key):
        return field(key, 1)

    def own(key):
        return field(key, 2)

    def count(key):
        return seen["counters"].get(key, 0) / n

    def layer_sum(snapshot, layer, index):
        return sum(entry[index] for key, entry in snapshot["spans"].items()
                   if key.split(".", 1)[0] == layer)

    iterations = count("optimizer.iterations")
    batch_calls = count("cost.batch_calls")
    matrices = count("cost.batch_matrices")
    updates = count("perf.incremental_updates")
    refactorizations = count("perf.incremental_refactorizations")
    submitted = calls("service.submit")
    hits = count("service.store_hits")
    simulated_s = total("simulation.single") + total("simulation.team")
    requests = sum(r for rnd in traced for r, _ in rnd.stores)
    reused = sum(h for rnd in traced for _, h in rnd.stores)
    values = {
        "topology.passby_s": total("topology.passby"),
        "topology.passby_calls": calls("topology.passby"),
        "topology.chord_s": total("topology.chord"),
        "topology.chord_builds": calls("topology.chord"),
        "markov.state_build_s": total("markov.state_build"),
        "markov.state_builds": count("perf.state_builds"),
        "markov.factorizations": count("perf.factorizations"),
        "markov.sparse_factorizations": count("perf.sparse_factorizations"),
        "markov.incremental_updates": updates,
        "markov.incremental_refactorizations": refactorizations,
        "markov.incremental_hit_ratio": _ratio(
            updates, updates + refactorizations),
        "cost.evaluate_s": own("cost.evaluate"),
        "cost.evaluate_calls": calls("cost.evaluate"),
        "cost.gradient_s": own("cost.gradient"),
        "cost.gradient_calls": calls("cost.gradient"),
        "cost.batch_s": own("cost.batch"),
        "cost.batch_calls": batch_calls,
        "cost.batch_matrices": matrices,
        "cost.matrices_per_batch": _ratio(matrices, batch_calls),
        "cost.batch_feasible_ratio": _ratio(
            count("cost.batch_feasible"), matrices),
        "linesearch.rays": calls("linesearch.ray"),
        "linesearch.probes_per_iteration": _ratio(matrices, iterations),
        "optimizer.iterations": iterations,
        "optimizer.accepted_ratio": _ratio(
            count("optimizer.accepted"), iterations),
        "optimizer.iterations_per_s": _ratio(
            iterations, total("optimizer.iteration")),
        "optimizer.best_u_eps": quality,
        "simulation.single_s": total("simulation.single"),
        "simulation.single_runs": calls("simulation.single"),
        "simulation.team_s": total("simulation.team"),
        "simulation.team_runs": calls("simulation.team"),
        "simulation.transitions_per_s": _ratio(
            count("simulation.transitions"), simulated_s),
        "exec.tasks": count("exec.tasks"),
        "exec.dispatch_bytes": count("exec.dispatch_bytes"),
        "exec.dispatch_s": count("exec.dispatch_s"),
        "exec.result_bytes": count("exec.result_bytes"),
        "exec.task_s": count("exec.task_s"),
        "exec.wait_s": max(
            0.0, count("exec.turnaround_s") - count("exec.task_s")),
        "exec.pool_start_s": count("exec.pool_start_s"),
        "exec.broadcast_hit_ratio": _ratio(reused, requests),
        "sweep.cells": calls("sweep.cell"),
        "sweep.cell_s": total("sweep.cell"),
        "sweep.write_s": total("sweep.write"),
        "sweep.skipped_cells": count("sweep.skipped_cells"),
        "service.submitted": submitted,
        "service.cache_hits": hits,
        "service.fan_in_joins": count("service.fan_in_joins"),
        "service.computed": calls("service.compute"),
        "service.hit_ratio": _ratio(hits, submitted),
        "service.digest_s": total("service.digest"),
        "service.store_get_s": total("service.store_get"),
        "service.store_put_s": total("service.store_put"),
        "service.import_s": total("service.import"),
        "service.queue_wait_s": own("service.submit"),
    }

    wall = sum(rnd.wall_s for rnd in traced)
    attributed = 0.0
    lines = [f"{'layer':<14}{'wall share':>11}{'self s/round':>14}"
             f"{'spans/round':>13}"]
    for layer in tracing.LAYERS:
        share = layer_sum(timed, layer, 3) / wall
        values[f"{layer}.self_s"] = layer_sum(seen, layer, 2) / n
        values[f"{layer}.wall_share"] = share
        attributed += share
        lines.append(
            f"{layer:<14}{100 * share:>10.1f}%"
            f"{values[f'{layer}.self_s']:>14.4f}"
            f"{layer_sum(seen, layer, 0) / n:>13.0f}"
        )
    traced_wall = min(rnd.wall_s for rnd in traced)
    values["trace.attributed_share"] = attributed
    values["trace.unattributed_s"] = (1.0 - attributed) * wall / n
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = (
        traced_wall / min(rnd.wall_s for rnd in plain)
    )
    lines += [
        f"{'unattributed':<14}{100 * (1.0 - attributed):>10.1f}%",
        f"self s/round counts driver and workers; wall share is the "
        f"driver's timeline over {n} traced rounds "
        f"({traced_wall:.3f} s best wall)",
        f"tracing overhead: traced / untraced best wall = "
        f"{values['trace.overhead_ratio']:.3f}",
    ]
    for name in PER_LAYER:
        if name in values and not name.endswith(("self_s", "wall_share")):
            lines.append(f"  {name:<38}{values[name]:>16.6g} "
                         f"{PER_LAYER[name]}")
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path,
                        help="also write the full report here as JSON")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workroot = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        import_s = measure.import_seconds(ROOT, IMPORTS)
        rounds = run_rounds(workload, args.seconds, bool(args.trace),
                            workroot)
        peak_mb = measure.peak_rss_mb(workload.workers)
        attempted, failed, problems = verify_rounds(workload, rounds)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.parent.rmdir()
    quality = best_u_eps(rounds)
    if args.trace:
        values, lines = per_layer(rounds, quality)
        values["verify.failed_frac"] = failed / attempted
        units = PER_LAYER
        problems += tally_problems(rounds)
        if values["trace.attributed_share"] < MIN_ATTRIBUTED:
            problems.append(
                f"layers account for {values['trace.attributed_share']:.1%}"
                f" of traced wall time, below {MIN_ATTRIBUTED:.0%}"
            )
    else:
        values, units, lines = end_to_end(rounds, import_s, peak_mb)
        lines.append(f"{'failed_frac':<14}{failed / attempted:>12.4f}      "
                     f"{failed} of {attempted} jobs")
        if any(job.best_u_eps is not None for job in rounds[0].jobs):
            lines.append(f"{'best_u_eps':<14}{quality:>12.6g}      sum of one "
                         "round's optimize results (deterministic per seed)")

    stamp = measure.machine_stamp(ROOT)
    header = [
        f"e2ebench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}: {len(rounds)} "
        f"rounds ({sum(r.traced for r in rounds)} traced), {attempted} "
        f"jobs, {failed} failed",
        "machine: " + " ".join(f"{k}={v}" for k, v in stamp.items()),
    ]
    report = header + lines + [f"problem: {p}" for p in problems[:20]]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": stamp,
            "result": result,
            "report": report,
            "rounds": [
                {"index": r.index, "traced": r.traced, "setup_s": r.setup_s,
                 "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                 "latencies": {job.key: job.seconds for job in r.jobs
                               if job.seconds is not None}}
                for r in rounds
            ],
        }, indent=2) + "\n")
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
