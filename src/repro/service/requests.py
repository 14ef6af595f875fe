"""Canonical, content-addressed job requests.

A job is identified by *what it computes*, never by who asked or when:
the request's identity is the canonical JSON of its topology digest, its
kind-specific parameters (weights, plugin-term triples, method, fully
expanded options, seed), and — for simulation kinds — the digests of its
input matrices.  :func:`request_digest` hashes that identity
(:func:`repro.persist.json_digest`), giving the key under which
concurrent identical submissions fan in to one computation and completed
results are cached (:mod:`repro.service.store`).

Canonicalization rules, chosen so semantically identical requests always
collide:

* ``options`` are expanded to the options class's **full field set**
  (via :func:`repro.core.options.coerce_options` + ``asdict``), so
  ``{"max_iterations": 100}`` and an explicit dataclass with the same
  defaults digest identically;
* plugin ``terms`` go through
  :func:`~repro.core.registry.normalize_extra_terms` and are **omitted
  when empty**, matching the sweep-cell convention — which is what lets
  :func:`request_from_cell` map a PR 8 sweep record onto the exact
  request digest a live submission of the same work produces;
* matrices contribute :func:`repro.persist.array_digest` (value- and
  layout-exact), not their floats, keeping identity payloads small.

:func:`execute_request` is the single compute path for every kind; the
simulation kinds route through the :func:`repro.simulate` façade.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.api import OPTIMIZER_REGISTRY
from repro.core.cost import CostWeights, CoverageCost, resolve_linalg
from repro.core.options import coerce_options
from repro.core.registry import normalize_extra_terms
from repro.persist import (
    SERVICE_REQUEST_SCHEMA,
    array_digest,
    json_digest,
    topology_from_dict,
    topology_to_dict,
)
from repro.simulation.api import SIMULATOR_REGISTRY
from repro.topology.model import Topology
from repro.utils.validation import check_index

#: Job kinds the service accepts.
KINDS = ("optimize", "simulate", "team")

#: Optimizer methods run as one checkpointable descent walk.
WALK_METHODS = ("basic", "adaptive", "perturbed")

#: Minimum wall time between two checkpoint writes of one job.  A
#: snapshot carries the whole history, so writing one per accepted
#: iteration would cost time quadratic in the run length (a default
#: ``basic`` run takes 10,000 steps).
CHECKPOINT_INTERVAL_S = 1.0


@dataclass(frozen=True, eq=False)
class JobRequest:
    """One content-addressed unit of service work.

    ``params`` is the canonical JSON-plain parameter dict produced by
    the kind's constructor function (:func:`optimize_request`,
    :func:`simulation_request`, :func:`team_request`) — build requests
    through those, not directly.  ``matrices`` carries the simulation
    kinds' input matrices (empty for ``optimize``).
    """

    kind: str
    topology: Topology
    params: dict
    matrices: Tuple[np.ndarray, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown kind {self.kind!r}; valid kinds: {KINDS}"
            )


def _canonical_terms(terms):
    """Normalized triples in the sweep's JSON list form."""
    return [
        [name, float(weight), dict(params)]
        for name, weight, params in normalize_extra_terms(terms)
    ]


def _canonical_options(options_class, options, method):
    """The full-field-set dict that makes options part of identity."""
    coerced = coerce_options(options_class, options, method=method)
    if coerced is None:
        coerced = options_class()
    return asdict(coerced)


def optimize_request(
    topology: Topology,
    alpha: float = 1.0,
    beta: float = 1.0,
    epsilon: float = 1e-4,
    method: str = "perturbed",
    seed: int = 0,
    options=None,
    terms=(),
    linalg: str = "auto",
    starts: int = 1,
) -> JobRequest:
    """Build a canonical optimization request.

    Mirrors :func:`repro.optimize`'s surface: ``method`` names an
    :data:`~repro.core.api.OPTIMIZER_REGISTRY` entry, ``options`` may be
    the method's dataclass or a mapping (unknown keys raise), ``terms``
    composes plugin objectives, ``starts`` sizes the multi-start
    portfolio (ignored by single-start methods, and then excluded from
    the request identity).  ``linalg`` is resolved against
    ``topology`` here, so a request the cost would refuse (an unknown
    mode, ``"sparse"`` without an adjacency mask) is never queued.
    """
    if method not in OPTIMIZER_REGISTRY:
        known = ", ".join(sorted(OPTIMIZER_REGISTRY))
        raise ValueError(
            f"unknown method {method!r}; available methods: {known}"
        )
    resolve_linalg(linalg, topology)
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    spec = OPTIMIZER_REGISTRY[method]
    params = {
        "method": method,
        "alpha": float(alpha),
        "beta": float(beta),
        "epsilon": float(epsilon),
        "seed": int(seed),
        "linalg": linalg,
        "options": _canonical_options(
            spec.options_class, options, method
        ),
    }
    if method == "multistart":
        params["starts"] = int(starts)
    canonical_terms = _canonical_terms(terms)
    if canonical_terms:
        params["terms"] = canonical_terms
    return JobRequest(kind="optimize", topology=topology, params=params)


def simulation_request(
    topology: Topology,
    matrix: np.ndarray,
    transitions: int,
    seed: int = 0,
    options=None,
) -> JobRequest:
    """Build a canonical single-sensor simulation request."""
    from repro.simulation.engine import SimulationOptions

    matrix = np.ascontiguousarray(matrix, dtype=float)
    params = {
        "transitions": int(transitions),
        "seed": int(seed),
        "options": _canonical_options(
            SimulationOptions, options, "single"
        ),
    }
    return JobRequest(
        kind="simulate", topology=topology, params=params,
        matrices=(matrix,),
    )


def team_request(
    topology: Topology,
    matrices,
    horizon: float,
    seed: int = 0,
    options=None,
) -> JobRequest:
    """Build a canonical team simulation request.

    ``matrices`` is one matrix per sensor (pass the same matrix ``K``
    times for a homogeneous team); ``options`` coerces to
    :class:`~repro.simulation.api.TeamOptions`.
    """
    from repro.simulation.api import TeamOptions

    stack = tuple(
        np.ascontiguousarray(m, dtype=float) for m in matrices
    )
    if not stack:
        raise ValueError("team requests need at least one matrix")
    coerced = coerce_options(TeamOptions, options, method="team")
    starts = None
    if coerced is not None and coerced.starts is not None:
        starts = [
            check_index(f"starts[{index}]", start, topology.size)
            for index, start in enumerate(coerced.starts)
        ]
    params = {
        "horizon": float(horizon),
        "seed": int(seed),
        "options": {"starts": starts},
    }
    return JobRequest(
        kind="team", topology=topology, params=params, matrices=stack
    )


def request_from_cell(
    cell, topology: Optional[Topology] = None
) -> JobRequest:
    """The service request computing exactly a sweep cell's work.

    Uses the sweep's cell-to-options expansion (iteration budget,
    disabled history, shared stall budget), and
    :func:`repro.sweep.grid.run_cell` executes a cell as this request
    (:func:`run_optimize_request`), so the request's result payload's
    ``"result"`` block is the record a sweep shard streams for the same
    cell.  This is also the bridge
    :meth:`repro.service.store.ResultStore.import_sweep` uses to
    pre-warm the cache from past sweeps.

    ``topology`` may be passed to reuse an already-built instance of
    the cell's topology (construction is deterministic, so the request
    is the same either way).
    """
    from repro.sweep.grid import _cell_options, build_topology

    spec = OPTIMIZER_REGISTRY[cell.method]
    if topology is None:
        topology = build_topology(cell)
    return optimize_request(
        topology,
        alpha=cell.alpha,
        beta=cell.beta,
        epsilon=cell.epsilon,
        method=cell.method,
        seed=cell.seed,
        options=_cell_options(cell, spec),
        terms=cell.terms,
        linalg=cell.linalg,
        starts=cell.starts,
    )


# ------------------------------------------------------------------ #
# Identity, digests, and the executable JSON form
# ------------------------------------------------------------------ #


def request_identity(request: JobRequest) -> dict:
    """The canonical identity structure :func:`request_digest` hashes.

    Topology and matrices appear as digests — identity is about *what*
    is computed, and two byte-identical inputs share a digest by
    construction.
    """
    identity = {
        "schema": SERVICE_REQUEST_SCHEMA,
        "kind": request.kind,
        "topology": json_digest(topology_to_dict(request.topology)),
        "params": request.params,
    }
    if request.matrices:
        identity["matrices"] = [
            array_digest(m) for m in request.matrices
        ]
    return identity


def request_digest(request: JobRequest) -> str:
    """Content digest of a request — the service's dedup/cache key."""
    return json_digest(request_identity(request))


def request_to_dict(request: JobRequest) -> dict:
    """Executable JSON form (spool files, cross-process shipping).

    Unlike :func:`request_identity` this embeds the full topology and
    matrices, so :func:`request_from_dict` can rebuild a runnable
    request from the file alone.
    """
    payload = {
        "schema": SERVICE_REQUEST_SCHEMA,
        "kind": request.kind,
        "topology": topology_to_dict(request.topology),
        "params": request.params,
    }
    if request.matrices:
        payload["matrices"] = [m.tolist() for m in request.matrices]
    return payload


def request_from_dict(data: dict) -> JobRequest:
    """Rebuild a request written by :func:`request_to_dict`.

    Re-canonicalizes through the kind's constructor, so a hand-written
    file with partial options still lands on the canonical digest.
    """
    schema = data.get("schema")
    if schema != SERVICE_REQUEST_SCHEMA:
        raise ValueError(
            f"expected schema {SERVICE_REQUEST_SCHEMA!r}, got {schema!r}"
        )
    kind = data.get("kind")
    if kind not in KINDS:
        raise ValueError(
            f"unknown kind {kind!r}; valid kinds: {KINDS}"
        )
    topology = topology_from_dict(data["topology"])
    params = dict(data.get("params") or {})
    matrices = [
        np.asarray(m, dtype=float)
        for m in data.get("matrices") or ()
    ]

    def _take(allowed):
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            raise ValueError(
                f"unknown params for kind {kind!r}: "
                f"{', '.join(unknown)}"
            )

    if kind == "optimize":
        _take({"method", "alpha", "beta", "epsilon", "seed", "linalg",
               "options", "terms", "starts"})
        if matrices:
            raise ValueError("optimize requests carry no matrices")
        terms = [
            (name, weight, params_dict)
            for name, weight, params_dict in params.get("terms", ())
        ]
        return optimize_request(
            topology,
            alpha=params.get("alpha", 1.0),
            beta=params.get("beta", 1.0),
            epsilon=params.get("epsilon", 1e-4),
            method=params.get("method", "perturbed"),
            seed=params.get("seed", 0),
            options=params.get("options"),
            terms=terms,
            linalg=params.get("linalg", "auto"),
            starts=params.get("starts", 1),
        )
    if kind == "simulate":
        _take({"transitions", "seed", "options"})
        if len(matrices) != 1:
            raise ValueError(
                "simulate requests carry exactly one matrix, got "
                f"{len(matrices)}"
            )
        if "transitions" not in params:
            raise ValueError("simulate requests need transitions")
        return simulation_request(
            topology, matrices[0],
            transitions=params["transitions"],
            seed=params.get("seed", 0),
            options=params.get("options"),
        )
    _take({"horizon", "seed", "options"})
    if not matrices:
        raise ValueError("team requests need at least one matrix")
    if "horizon" not in params:
        raise ValueError("team requests need horizon")
    options = params.get("options")
    if isinstance(options, dict) and options.get("starts") is not None:
        options = dict(options)
        options["starts"] = tuple(options["starts"])
    return team_request(
        topology, matrices,
        horizon=params["horizon"],
        seed=params.get("seed", 0),
        options=options,
    )


# ------------------------------------------------------------------ #
# Execution — the one compute path for every kind
# ------------------------------------------------------------------ #


def _simulation_payload(sim) -> dict:
    """JSON-plain form of a single-sensor simulation result."""
    payload = {
        "transitions": int(sim.transitions),
        "total_time": float(sim.total_time),
        "coverage_shares": sim.coverage_shares.tolist(),
        "physical_coverage_shares":
            sim.physical_coverage_shares.tolist(),
        "delta_c": float(sim.delta_c),
        "exposure_transitions": sim.exposure_transitions.tolist(),
        "e_bar_transitions": float(sim.e_bar_transitions),
        "exposure_physical": sim.exposure_physical.tolist(),
        "e_bar_physical_normalized":
            float(sim.e_bar_physical_normalized),
        "mean_transition_duration":
            float(sim.mean_transition_duration),
        "visit_counts": sim.visit_counts.tolist(),
        "occupancy": sim.occupancy.tolist(),
        "start_state": int(sim.start_state),
        "end_state": int(sim.end_state),
    }
    if sim.path is not None:
        payload["path"] = sim.path.tolist()
    return payload


def _team_payload(team) -> dict:
    """JSON-plain form of a team simulation result."""
    return {
        "sensors": int(team.sensors),
        "horizon": float(team.horizon),
        "coverage_shares": team.coverage_shares.tolist(),
        "per_sensor_shares": team.per_sensor_shares.tolist(),
        "exposure_mean": [
            None if np.isnan(value) else float(value)
            for value in team.exposure_mean
        ],
        "exposure_counts": team.exposure_counts.tolist(),
        "transitions": team.transitions.tolist(),
    }


def build_cost(request: JobRequest) -> CoverageCost:
    """The :class:`CoverageCost` an optimize request describes."""
    if request.kind != "optimize":
        raise ValueError(
            f"kind {request.kind!r} requests have no cost"
        )
    params = request.params
    return CoverageCost(
        request.topology,
        CostWeights(
            alpha=params["alpha"], beta=params["beta"],
            epsilon=params["epsilon"],
        ),
        linalg=params["linalg"],
        extra_terms=[
            (name, weight, p)
            for name, weight, p in params.get("terms", ())
        ],
    )


def optimize_result_payload(result) -> dict:
    """The optimize payload block (field-for-field the sweep record's
    ``"result"`` block, so imported sweep cells and live computations
    are interchangeable)."""
    return {
        "u": float(result.u),
        "u_eps": float(result.u_eps),
        "best_u_eps": float(result.best_u_eps),
        "delta_c": float(result.delta_c),
        "e_bar": float(result.e_bar),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "stop_reason": str(result.stop_reason),
    }


def run_optimize_request(request: JobRequest, checkpoint=None):
    """Run an optimize request; returns the best
    :class:`~repro.core.result.OptimizationResult` (a multi-start's
    best run).

    The one optimize body behind :func:`execute_request` and
    :func:`repro.sweep.grid.run_cell`.  ``checkpoint`` applies to the
    descent-walk methods (see :func:`execute_request`).
    """
    from repro.core.api import optimize

    params = request.params
    cost = build_cost(request)
    method = params["method"]
    spec = OPTIMIZER_REGISTRY[method]
    options = coerce_options(
        spec.options_class, params["options"], method=method
    )
    if method in WALK_METHODS and checkpoint is not None:
        return _run_walk_checkpointed(
            cost, options, params["seed"], checkpoint
        )
    kwargs = {}
    if spec.accepts_seed:
        kwargs["seed"] = params["seed"]
    if method == "multistart":
        kwargs["random_starts"] = params["starts"]
    result = optimize(cost, method=method, options=options, **kwargs)
    if method == "multistart":
        result = result.best
    return result


def execute_request(
    request: JobRequest, checkpoint=None
) -> dict:
    """Compute a request's result payload.

    ``checkpoint`` (see :class:`repro.service.runner.JobCheckpoint`)
    enables snapshots after accepted iterations (at most one per
    :data:`CHECKPOINT_INTERVAL_S`) for the descent-walk optimizers
    (``"basic"``, ``"adaptive"``, ``"perturbed"``) — a killed run
    restores from the last snapshot and finishes bit-identically to an
    uninterrupted one.  Other kinds and methods run to completion in
    one piece (their single runs are short; the cache, not the
    checkpoint, is their recovery story).

    Simulation kinds route through the :func:`repro.simulate` façade.
    """
    from repro.simulation.api import simulate

    params = request.params
    if request.kind == "optimize":
        result = run_optimize_request(request, checkpoint)
        return {
            "result": optimize_result_payload(result),
            "matrix": np.asarray(
                result.best_matrix, dtype=float
            ).tolist(),
        }
    if request.kind == "simulate":
        from repro.simulation.engine import SimulationOptions

        sim = simulate(
            request.topology, request.matrices[0], kind="single",
            transitions=params["transitions"], seed=params["seed"],
            options=SimulationOptions(**params["options"]),
        )
        return {"result": _simulation_payload(sim)}
    # kind == "team"
    options = dict(params["options"])
    if options.get("starts") is not None:
        options["starts"] = tuple(options["starts"])
    from repro.simulation.api import TeamOptions

    team = simulate(
        request.topology, list(request.matrices), kind="team",
        horizon=params["horizon"], seed=params["seed"],
        options=TeamOptions(**options),
    )
    return {"result": _team_payload(team)}


def _run_walk_checkpointed(cost, options, seed, checkpoint):
    """Drive a :class:`PerturbedWalk`, snapshotting it after an
    accepted iteration at most every :data:`CHECKPOINT_INTERVAL_S`.

    Uses the same :func:`~repro.core.perturbed.advance_walk` iteration
    driver as the methods' entry points
    (:func:`~repro.core.perturbed.optimize_perturbed` and its siblings),
    so the trajectory — checkpointed, resumed, or neither — is
    bit-identical to the plain entry point.
    """
    from repro.core.perturbed import (
        WALK_SNAPSHOT_SCHEMA,
        PerturbedWalk,
        advance_walk,
    )

    snapshot = checkpoint.load()
    # A checkpoint of another schema (an older release's) is treated
    # like a torn one: a fresh start is always a correct recovery.
    if snapshot is not None and snapshot.get("schema") == (
        WALK_SNAPSHOT_SCHEMA
    ):
        walk = PerturbedWalk.restore(cost, snapshot, options)
    else:
        walk = PerturbedWalk(cost, None, seed, options)
    accepted = walk.accepted_steps
    saved = time.monotonic()
    while advance_walk(cost, walk, options):
        if (
            walk.accepted_steps > accepted
            and time.monotonic() - saved >= CHECKPOINT_INTERVAL_S
        ):
            accepted = walk.accepted_steps
            checkpoint.save(walk.snapshot())
            saved = time.monotonic()
    checkpoint.clear()
    return walk.result()
