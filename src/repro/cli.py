"""Command-line interface.

Five subcommands mirror the library's workflow::

    python -m repro topology  --paper 1 --save topo.json
    python -m repro optimize  --topology topo.json --alpha 1 --beta 1e-4 \\
                              --algorithm multistart --save-matrix P.json
    python -m repro simulate  --topology topo.json --matrix P.json \\
                              --transitions 100000
    python -m repro experiment table1
    python -m repro sweep     --grid grid.json --out sweeps/run1 \\
                              --shards 4 --jobs 4 --resume
    python -m repro tradeoff  --paper 1 --points 6
    python -m repro submit    --store cache/ --paper 1 --beta 0.5 \\
                              --iterations 400
    python -m repro serve     --store cache/ --spool jobs/ \\
                              --import-sweep sweeps/run1

Every command prints a plain-text report; ``--save*`` options write JSON
artifacts via :mod:`repro.persist`.  ``submit`` and ``serve`` front the
coverage service (:mod:`repro.service`): jobs are content-addressed, so
repeated submissions of the same work are cache hits, and past sweep
directories pre-warm the cache via ``--import-sweep``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

import repro.experiments as experiments
from repro import persist
from repro.analysis.pareto import pareto_filter, tradeoff_curve
from repro.exec import BACKENDS, TRANSPORTS, using_executor
from repro.core.api import OPTIMIZER_REGISTRY, optimize
from repro.core.cost import LINALG_MODES, CostWeights, CoverageCost
from repro.core.registry import TERM_REGISTRY, normalize_extra_terms
from repro.simulation.engine import SimulationOptions, simulate_schedule
from repro.topology.grid import grid_topology, line_topology
from repro.topology.library import (
    PAPER_TOPOLOGY_IDS,
    SCALABLE_FAMILIES,
    paper_topology,
    scalable_topology,
)
from repro.topology.random_gen import random_topology

#: Experiment names accepted by ``repro experiment``.
EXPERIMENTS = {
    "table1": experiments.table1,
    "table2": experiments.table2,
    "table3": experiments.table3,
    "table4": experiments.table4,
    "figure2a": experiments.figure2a,
    "figure2b": experiments.figure2b,
    "figure3": experiments.figure3,
    "figure4": experiments.figure4,
    "figure5a": experiments.figure5a,
    "figure5b": experiments.figure5b,
    "figure6": experiments.figure6,
    "figure7": experiments.figure7,
    "figure8": experiments.figure8,
    "ablation-step-size": experiments.ablation_step_size,
    "ablation-linesearch": experiments.ablation_linesearch,
    "ablation-optimizer": experiments.ablation_optimizer,
    "ablation-noise": experiments.ablation_noise,
    "ablation-epsilon": experiments.ablation_epsilon,
    "extension-energy": experiments.extension_energy,
    "extension-entropy": experiments.extension_entropy,
    "extension-team": experiments.extension_team,
    "extension-capture": experiments.extension_capture,
    "baselines": experiments.baseline_comparison,
    "validate": experiments.validate_reproduction,
}


def _load_topology(args):
    if args.topology:
        return persist.load_topology(args.topology)
    if args.paper:
        return paper_topology(args.paper)
    raise SystemExit("provide --topology FILE or --paper ID")


def _add_topology_source(parser) -> None:
    parser.add_argument(
        "--topology", help="path to a topology JSON file"
    )
    parser.add_argument(
        "--paper", type=int, choices=PAPER_TOPOLOGY_IDS,
        help="use a paper evaluation topology instead",
    )


def _add_parallel_flags(parser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "run independent seeds/starts on N workers "
            "(default: serial execution)"
        ),
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help=(
            "execution backend; defaults to 'process' when --jobs > 1, "
            "'serial' otherwise"
        ),
    )
    parser.add_argument(
        "--transport", choices=TRANSPORTS, default=None,
        help=(
            "process-backend payload transport: 'pickle' (plain bytes), "
            "'shm' (shared-memory tensors, broadcast-once costs), or "
            "'auto' (shm above a size threshold; the default); results "
            "are bit-identical either way"
        ),
    )


def _add_term_flags(parser) -> None:
    parser.add_argument(
        "--terms", default=None, metavar="NAME[,NAME...]",
        help=(
            "compose extra cost terms from repro.TERM_REGISTRY "
            "(e.g. 'minimax,periodicity'; registered: "
            + ", ".join(TERM_REGISTRY) + "; see docs/objectives.md)"
        ),
    )
    parser.add_argument(
        "--weights", default=None, metavar="W[,W...]",
        help=(
            "weights for --terms, one per name (default: 1.0 each); "
            "requires --terms"
        ),
    )


def _parse_term_flags(args):
    """The ``(name, weight)`` composition from ``--terms``/``--weights``.

    Returns ``None`` when no ``--terms`` was given, so callers can
    distinguish "no override" from an explicit composition.
    """
    terms_arg = getattr(args, "terms", None)
    weights_arg = getattr(args, "weights", None)
    if terms_arg is None:
        if weights_arg is not None:
            raise SystemExit("--weights requires --terms")
        return None
    names = [name.strip() for name in terms_arg.split(",") if name.strip()]
    if not names:
        raise SystemExit("--terms must name at least one registered term")
    if weights_arg is None:
        weights = [1.0] * len(names)
    else:
        try:
            weights = [float(w) for w in weights_arg.split(",")]
        except ValueError:
            raise SystemExit(
                f"--weights must be comma-separated numbers, "
                f"got {weights_arg!r}"
            )
        if len(weights) != len(names):
            raise SystemExit(
                f"--weights lists {len(weights)} value(s) for "
                f"{len(names)} term(s)"
            )
    try:
        return list(normalize_extra_terms(list(zip(names, weights))))
    except ValueError as exc:
        raise SystemExit(str(exc))


def _executor_spec(args):
    """The ``(backend, jobs, transport)`` triple from the command line."""
    jobs = getattr(args, "jobs", None)
    backend = getattr(args, "backend", None)
    transport = getattr(args, "transport", None)
    if backend is None:
        backend = "process" if jobs is not None and jobs > 1 else "serial"
    return backend, jobs, transport


def _cmd_topology(args) -> int:
    if args.paper:
        topology = paper_topology(args.paper)
    elif args.grid:
        rows, cols = args.grid
        topology = grid_topology(rows, cols)
    elif args.line:
        topology = line_topology(args.line)
    elif args.random:
        topology = random_topology(args.random, seed=args.seed)
    elif args.family:
        if args.size is None:
            raise SystemExit("--family requires --size M")
        topology = scalable_topology(
            args.family, args.size, seed=args.seed
        )
    else:
        raise SystemExit(
            "provide one of --paper, --grid, --line, --random, --family"
        )
    np.set_printoptions(precision=4, suppress=True)
    print(f"{topology.name}: {topology.size} PoIs")
    print(f"  target shares: {topology.target_shares}")
    print(f"  sensing radius: {topology.sensing_radius} m, "
          f"speed: {topology.speed} m/s")
    adjacency = topology.adjacency
    if adjacency is not None:
        legs = int(adjacency.sum() - topology.size)
        print(f"  sparse support: {legs} feasible off-diagonal legs "
              f"of {topology.size * (topology.size - 1)}")
    if topology.size <= 16:
        print("  travel times T_jk (s):")
        print(topology.travel_times)
    if args.save:
        persist.save_topology(topology, args.save)
        print(f"saved to {args.save}")
    return 0


def _cmd_optimize(args) -> int:
    topology = _load_topology(args)
    weights = CostWeights(
        alpha=args.alpha,
        beta=args.beta,
        epsilon=args.epsilon,
        energy_weight=args.energy_weight,
        energy_target=args.energy_target,
        entropy_weight=args.entropy_weight,
    )
    extra_terms = _parse_term_flags(args)
    try:
        cost = CoverageCost(
            topology, weights, linalg=args.linalg,
            extra_terms=extra_terms or (),
        )
    except ValueError as error:
        raise SystemExit(f"repro optimize: {error}") from None
    method = args.method
    spec = OPTIMIZER_REGISTRY[method]
    options = {"max_iterations": args.iterations}
    if method == "basic":
        options["step_size"] = args.step_size
    if method == "multistart":
        # One shared iteration budget: never stop a start early.
        options["stall_limit"] = args.iterations + 1
    kwargs = {}
    if spec.accepts_seed:
        kwargs["seed"] = args.seed
    result = optimize(cost, method=method, options=options, **kwargs)
    if method == "multistart":
        result = result.best

    np.set_printoptions(precision=4, suppress=True)
    print(result.summary())
    print("P =")
    print(np.asarray(result.best_matrix))
    print("coverage shares:", cost.coverage_shares(result.best_matrix))
    print("exposure times: ", cost.exposure_times(result.best_matrix))
    if args.save_matrix:
        persist.save_matrix(result.best_matrix, args.save_matrix)
        print(f"matrix saved to {args.save_matrix}")
    if args.save_result:
        persist.save_result(result, args.save_result)
        print(f"result saved to {args.save_result}")
    return 0


def _cmd_simulate(args) -> int:
    topology = _load_topology(args)
    matrix = persist.load_matrix(args.matrix)
    result = simulate_schedule(
        topology, matrix,
        transitions=args.transitions,
        seed=args.seed,
        options=SimulationOptions(warmup=args.warmup),
    )
    np.set_printoptions(precision=4, suppress=True)
    print(result.summary())
    print("coverage shares (schedule conv.):", result.coverage_shares)
    print("coverage shares (physical):     ",
          result.physical_coverage_shares)
    print("exposure (transitions):         ",
          result.exposure_transitions)
    print("occupancy:                      ", result.occupancy)
    return 0


def _cmd_experiment(args) -> int:
    function = EXPERIMENTS[args.name]
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    result = function(**kwargs)
    print(result.render())
    return 0


def _cmd_team(args) -> int:
    import numpy as np

    from repro.multisensor import (
        simulate_team,
        team_coverage_approximation,
        team_exposure_approximation,
    )

    topology = _load_topology(args)
    matrix = persist.load_matrix(args.matrix)
    solo = simulate_team(
        topology, [matrix], horizon=args.horizon, seed=args.seed
    )
    team = simulate_team(
        topology, [matrix] * args.sensors, horizon=args.horizon,
        seed=args.seed + 1,
    )
    predicted_cov = team_coverage_approximation(
        np.tile(solo.coverage_shares, (args.sensors, 1))
    )
    predicted_gap = team_exposure_approximation(
        np.tile(solo.exposure_mean, (args.sensors, 1))
    )
    np.set_printoptions(precision=4, suppress=True)
    print(f"team of {args.sensors} over {args.horizon:.0f} s")
    print("union coverage shares:", team.coverage_shares)
    print("  predicted:          ", predicted_cov)
    print("mean exposure gaps (s):", team.exposure_mean)
    print("  predicted:           ", predicted_gap)
    print("per-sensor transitions:", team.transitions)
    return 0


def _cmd_sweep(args) -> int:
    from repro.sweep import load_grid, merge_shards, run_sweep

    grid = load_grid(args.grid)
    if args.linalg is not None:
        # Applied before expansion so every cell digest carries the
        # override — a different linalg backend is different work.
        grid = grid.with_linalg(args.linalg)
    terms = _parse_term_flags(args)
    if terms is not None:
        # Same rule: a different objective composition is different
        # work, so the override lands in every cell digest.
        grid = grid.with_terms(terms)
    backend, jobs, transport = _executor_spec(args)
    report = run_sweep(
        grid,
        args.out,
        shards=args.shards,
        backend=backend,
        jobs=jobs,
        transport=transport,
        resume=args.resume,
        max_cells=args.max_cells,
    )
    print(
        f"sweep {args.out}: {report.total_cells} cells expanded, "
        f"{report.unique_cells} unique "
        f"({report.duplicate_cells} duplicates collapsed)"
    )
    print(
        f"  skipped {report.skipped_cells} already complete, "
        f"ran {report.ran_cells} on {report.shards} shard(s) "
        f"[{report.backend}] in {report.wall_seconds:.2f} s"
        + (" (interrupted by --max-cells)" if report.interrupted else "")
    )
    if report.broadcast_requests:
        print(
            f"  shm broadcast: {report.broadcast_hits}/"
            f"{report.broadcast_requests} hits "
            f"({report.broadcast_hit_ratio:.0%}), "
            f"dispatch {report.dispatch_bytes} B, "
            f"results {report.result_bytes} B"
        )
    print(f"  {report.records} records on disk")
    for label, front in report.fronts.items():
        print(f"  front {label}: {len(front)} point(s)")
        for point in front:
            print(
                f"    dC={point['delta_c']:.5g} "
                f"E={point['e_bar']:.5g}  "
                f"[alpha={point['alpha']:g} beta={point['beta']:g} "
                f"{point['method']} seed={point['seed']}]"
            )
    if args.merge:
        count = merge_shards(args.out, args.merge)
        print(f"merged {count} records to {args.merge}")
    return 0


def _service_from_args(args):
    """Build the :class:`~repro.service.CoverageService` behind
    ``submit``/``serve``; ``executor=None`` picks up the scope installed
    by :func:`main` from ``--jobs``/``--backend``/``--transport``."""
    from repro.service import CoverageService, ResultStore

    store = ResultStore(args.store, max_bytes=args.max_bytes)
    service = CoverageService(store)
    if args.import_sweep:
        imported, skipped = service.import_sweep(args.import_sweep)
        print(
            f"imported {imported} sweep record(s) from "
            f"{args.import_sweep}"
            + (f" ({skipped} without a matrix skipped)" if skipped
               else "")
        )
    return service


def _cmd_submit(args) -> int:
    import json
    import pathlib

    from repro.service import (
        optimize_request,
        request_digest,
        request_from_dict,
    )

    service = _service_from_args(args)
    if args.request:
        request = request_from_dict(
            json.loads(pathlib.Path(args.request).read_text())
        )
    else:
        topology = _load_topology(args)
        request = optimize_request(
            topology,
            alpha=args.alpha,
            beta=args.beta,
            epsilon=args.epsilon,
            method=args.method,
            seed=args.seed,
            options={"max_iterations": args.iterations},
            terms=_parse_term_flags(args) or (),
            linalg=args.linalg,
        )
    digest = request_digest(request)
    payload = service.run(request)
    source = "cache" if service.stats.cache_hits else "fresh computation"
    print(f"request {digest} [{request.kind}] served from {source}")
    for key, value in sorted(payload["result"].items()):
        if not isinstance(value, list):
            print(f"  {key}: {value}")
    if args.save_matrix:
        if "matrix" not in payload:
            raise SystemExit(
                f"{request.kind} payloads carry no matrix to save"
            )
        persist.save_matrix(
            np.asarray(payload["matrix"], dtype=float),
            args.save_matrix,
        )
        print(f"matrix saved to {args.save_matrix}")
    if args.save_payload:
        pathlib.Path(args.save_payload).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        print(f"payload saved to {args.save_payload}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve_spool

    if args.spool is None and args.import_sweep is None:
        raise SystemExit("provide --spool DIR and/or --import-sweep DIR")
    service = _service_from_args(args)
    if args.spool is not None:
        written = serve_spool(service, args.spool)
        print(f"answered {len(written)} request(s) in {args.spool}")
        for path in written:
            print(f"  {path.name}")
    stats = service.stats.as_dict()
    print(
        f"stats: {stats['submitted']} submitted, "
        f"{stats['cache_hits']} cache hit(s), "
        f"{stats['computed']} computed, "
        f"{stats['fan_in_joins']} fan-in join(s), "
        f"{stats['imported']} imported"
    )
    return 0


def _cmd_tradeoff(args) -> int:
    topology = _load_topology(args)
    betas = np.geomspace(args.beta_max, args.beta_min, args.points)
    points = tradeoff_curve(
        topology, betas=betas, iterations=args.iterations,
        seed=args.seed,
    )
    efficient = pareto_filter(points)
    header = (f"{'beta':>10}  {'dC':>12}  {'E-bar':>10}  "
              f"{'travel m/step':>13}  pareto")
    print(header)
    print("-" * len(header))
    for point in points:
        marker = "*" if point in efficient else ""
        print(f"{point.beta:>10.3g}  {point.delta_c:>12.5g}  "
              f"{point.e_bar:>10.4g}  {point.mean_travel:>13.1f}  "
              f"{marker:>6}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Stochastic steepest-descent optimization of mobile sensor "
            "coverage (ICDCS 2010 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser(
        "topology", help="build, inspect, and save topologies"
    )
    p_topo.add_argument("--paper", type=int, choices=PAPER_TOPOLOGY_IDS)
    p_topo.add_argument(
        "--grid", type=int, nargs=2, metavar=("ROWS", "COLS")
    )
    p_topo.add_argument("--line", type=int, metavar="COUNT")
    p_topo.add_argument("--random", type=int, metavar="COUNT")
    p_topo.add_argument(
        "--family", choices=SCALABLE_FAMILIES,
        help="scalable sparse-support family (use with --size)",
    )
    p_topo.add_argument(
        "--size", type=int, metavar="M",
        help="PoI count for --family topologies",
    )
    p_topo.add_argument("--seed", type=int, default=0)
    p_topo.add_argument("--save", help="write topology JSON here")
    p_topo.set_defaults(handler=_cmd_topology)

    p_opt = sub.add_parser("optimize", help="optimize a schedule")
    _add_topology_source(p_opt)
    p_opt.add_argument("--alpha", type=float, default=1.0)
    p_opt.add_argument("--beta", type=float, default=1.0)
    p_opt.add_argument("--epsilon", type=float, default=1e-4)
    p_opt.add_argument("--energy-weight", type=float, default=0.0)
    p_opt.add_argument("--energy-target", type=float, default=0.0)
    p_opt.add_argument("--entropy-weight", type=float, default=0.0)
    p_opt.add_argument(
        "--method", "--algorithm", dest="method", default="perturbed",
        choices=tuple(OPTIMIZER_REGISTRY),
        help=(
            "optimizer variant (one per repro.OPTIMIZER_REGISTRY entry; "
            "--algorithm is the historical spelling)"
        ),
    )
    p_opt.add_argument(
        "--linalg", choices=LINALG_MODES, default="auto",
        help=(
            "linear-algebra backend: 'dense' (paper-exact reference), "
            "'sparse' (large sparse-support topologies), or 'auto' "
            "(sparse when the topology has an adjacency mask and is "
            "large enough; default)"
        ),
    )
    _add_term_flags(p_opt)
    p_opt.add_argument("--iterations", type=int, default=400)
    p_opt.add_argument(
        "--step-size", type=float, default=1e-6,
        help="constant step for --algorithm basic",
    )
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--save-matrix", help="write matrix JSON here")
    p_opt.add_argument("--save-result", help="write result JSON here")
    _add_parallel_flags(p_opt)
    p_opt.set_defaults(handler=_cmd_optimize)

    p_sim = sub.add_parser("simulate", help="simulate a schedule")
    _add_topology_source(p_sim)
    p_sim.add_argument("--matrix", required=True,
                       help="matrix JSON from `optimize --save-matrix`")
    p_sim.add_argument("--transitions", type=int, default=50_000)
    p_sim.add_argument("--warmup", type=int, default=1_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--seed", type=int, default=None)
    _add_parallel_flags(p_exp)
    p_exp.set_defaults(handler=_cmd_experiment)

    p_team = sub.add_parser(
        "team", help="simulate a homogeneous sensor team"
    )
    _add_topology_source(p_team)
    p_team.add_argument("--matrix", required=True,
                        help="matrix JSON from `optimize --save-matrix`")
    p_team.add_argument("--sensors", type=int, default=3)
    p_team.add_argument("--horizon", type=float, default=100_000.0)
    p_team.add_argument("--seed", type=int, default=0)
    p_team.set_defaults(handler=_cmd_team)

    p_sw = sub.add_parser(
        "sweep",
        help="run a sharded, resumable scenario sweep from a grid file",
    )
    p_sw.add_argument(
        "--grid", required=True,
        help=(
            "scenario grid JSON (schema repro/sweep-grid/v1; see "
            "docs/sweeps.md)"
        ),
    )
    p_sw.add_argument(
        "--out", required=True,
        help="sweep output directory (append-only JSONL shards)",
    )
    p_sw.add_argument(
        "--shards", type=int, default=1,
        help="number of shard queues / output files (default: 1)",
    )
    p_sw.add_argument(
        "--resume", action="store_true",
        help=(
            "continue a sweep directory that already holds shards; "
            "cells with a completed record are skipped by digest"
        ),
    )
    p_sw.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help=(
            "stop after N cells this invocation (the sweep stays "
            "resumable; mainly for smoke tests)"
        ),
    )
    p_sw.add_argument(
        "--merge", default=None, metavar="FILE",
        help=(
            "after the sweep, write the canonical merged JSONL "
            "(sorted by cell digest) here"
        ),
    )
    p_sw.add_argument(
        "--linalg", choices=LINALG_MODES, default=None,
        help=(
            "override the grid's linear-algebra backend before "
            "expansion (changes every cell digest)"
        ),
    )
    _add_term_flags(p_sw)
    _add_parallel_flags(p_sw)
    p_sw.set_defaults(handler=_cmd_sweep)

    p_job = sub.add_parser(
        "submit",
        help="submit one job to the content-addressed coverage service",
    )
    _add_topology_source(p_job)
    p_job.add_argument(
        "--store", required=True,
        help="result store directory (created if missing)",
    )
    p_job.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="LRU size bound for the store (default: unbounded)",
    )
    p_job.add_argument(
        "--request", default=None, metavar="FILE",
        help=(
            "request JSON file (schema repro/service-request/v2; a v1 "
            "file is rejected with a schema error); when given, the "
            "optimize flags below are ignored"
        ),
    )
    p_job.add_argument("--alpha", type=float, default=1.0)
    p_job.add_argument("--beta", type=float, default=1.0)
    p_job.add_argument("--epsilon", type=float, default=1e-4)
    p_job.add_argument(
        "--method", default="perturbed",
        choices=tuple(OPTIMIZER_REGISTRY),
    )
    p_job.add_argument("--iterations", type=int, default=400)
    p_job.add_argument("--seed", type=int, default=0)
    p_job.add_argument(
        "--linalg", choices=LINALG_MODES, default="auto"
    )
    _add_term_flags(p_job)
    p_job.add_argument(
        "--import-sweep", default=None, metavar="DIR",
        help="pre-warm the store from a sweep output directory first",
    )
    p_job.add_argument("--save-matrix", help="write matrix JSON here")
    p_job.add_argument(
        "--save-payload", help="write the raw result payload JSON here"
    )
    _add_parallel_flags(p_job)
    p_job.set_defaults(handler=_cmd_submit)

    p_srv = sub.add_parser(
        "serve",
        help=(
            "answer spooled request files from the coverage service "
            "(idempotent; re-run to drain new requests)"
        ),
    )
    p_srv.add_argument(
        "--store", required=True,
        help="result store directory (created if missing)",
    )
    p_srv.add_argument(
        "--spool", default=None, metavar="DIR",
        help=(
            "directory of request JSON files; each NAME.json gains a "
            "NAME.result.json answer"
        ),
    )
    p_srv.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="LRU size bound for the store (default: unbounded)",
    )
    p_srv.add_argument(
        "--import-sweep", default=None, metavar="DIR",
        help="pre-warm the store from a sweep output directory",
    )
    _add_parallel_flags(p_srv)
    p_srv.set_defaults(handler=_cmd_serve)

    p_par = sub.add_parser(
        "tradeoff", help="trace the coverage/exposure Pareto frontier"
    )
    _add_topology_source(p_par)
    p_par.add_argument("--points", type=int, default=6)
    p_par.add_argument("--beta-max", type=float, default=1.0)
    p_par.add_argument("--beta-min", type=float, default=1e-6)
    p_par.add_argument("--iterations", type=int, default=250)
    p_par.add_argument("--seed", type=int, default=0)
    _add_parallel_flags(p_par)
    p_par.set_defaults(handler=_cmd_tradeoff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Commands with ``--jobs`` / ``--backend`` / ``--transport`` run
    inside a :func:`repro.exec.using_executor` scope, so every
    multi-run driver they reach (``run_many``, ``optimize_multistart``,
    ``simulate_repeatedly``) fans out on the requested backend without
    further plumbing.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    backend, jobs, transport = _executor_spec(args)
    if jobs is not None and jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    if transport == "shm" and backend != "process":
        parser.error("--transport shm requires --backend process")
    with using_executor(backend, jobs=jobs, transport=transport):
        return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
