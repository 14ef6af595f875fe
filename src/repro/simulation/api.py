"""``repro.simulate`` — the scipy-style front door of the simulators.

Every simulation entry point keeps its direct form
(:func:`~repro.simulation.engine.simulate_schedule`,
:func:`~repro.multisensor.engine.simulate_team`, and their
``*_repeatedly`` fan-out drivers), but callers who select the simulator
at runtime — the CLI, the service layer, batch scripts — go through one
façade mirroring :func:`repro.optimize`::

    sim = repro.simulate(topology, matrix, kind="single",
                         transitions=20_000, seed=1)
    team = repro.simulate(topology, matrix, kind="team", sensors=3,
                          horizon=5_000.0, seed=1)

``kind`` picks an entry from :data:`SIMULATOR_REGISTRY`; ``options`` may
be the kind's options dataclass or a plain dict (coerced through
:func:`repro.core.options.coerce_options`, which rejects unknown keys by
name).  The façade only routes — it adds no logic of its own, so
``simulate(..., kind=k)`` is bit-identical to calling the kind's
function directly with the same arguments (tested in
``tests/simulation/test_simulate_api.py``).

``repetitions`` switches to the kind's executor-backed fan-out driver
(``simulate_repeatedly`` / ``simulate_team_repeatedly``); ``execution``
and ``transport`` then select the :mod:`repro.exec` backend and the
process backend's payload transport, exactly as on
``repro.optimize(..., method="multistart")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

import numpy as np

from repro.core.options import coerce_options
from repro.simulation.engine import SimulationOptions, simulate_schedule
from repro.topology.model import Topology


@dataclass(frozen=True)
class TeamOptions:
    """Knobs of the team simulator (``kind="team"``).

    ``starts`` optionally fixes each sensor's start PoI (defaults to
    independent uniform draws from each sensor's own stream — see
    :class:`~repro.multisensor.engine.TeamSimulationResult`).
    """

    starts: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.starts is not None:
            object.__setattr__(
                self, "starts", tuple(int(s) for s in self.starts)
            )


@dataclass(frozen=True)
class SimulatorSpec:
    """Registry entry: a simulator kind's entry points and contract.

    ``func`` is the direct single-run entry point and ``repeat_func``
    resolves the executor-backed fan-out driver used when the façade is
    given ``repetitions`` (a zero-argument callable returning the
    driver, so registering a kind never forces its package to import).
    ``required`` names the façade keyword the kind cannot run without
    (``transitions`` / ``horizon``); ``extra_keywords`` are
    kind-specific keywords the façade accepts (e.g. the team's
    ``sensors``).  ``summary`` is the one-line help text the CLI shows.
    """

    name: str
    func: Callable
    repeat_func: Callable
    options_class: Type
    required: str
    extra_keywords: Tuple[str, ...] = ()
    summary: str = ""


def _single_repeat_driver():
    from repro.experiments.runner import simulate_repeatedly

    return simulate_repeatedly


def _team_repeat_driver():
    from repro.multisensor.engine import simulate_team_repeatedly

    return simulate_team_repeatedly


def _team_func():
    from repro.multisensor.engine import simulate_team

    return simulate_team


def _simulate_team_entry(*args, **kwargs):
    """Late-binding alias of
    :func:`~repro.multisensor.engine.simulate_team` (avoids importing
    :mod:`repro.multisensor` while :mod:`repro.simulation` is still
    initializing)."""
    return _team_func()(*args, **kwargs)


#: Kind name -> spec.  Iteration order is the documentation order.
SIMULATOR_REGISTRY: Dict[str, SimulatorSpec] = {
    "single": SimulatorSpec(
        name="single",
        func=simulate_schedule,
        repeat_func=_single_repeat_driver,
        options_class=SimulationOptions,
        required="transitions",
        summary="one sensor, a fixed number of Markov transitions "
        "(Section VI-D measurement conventions)",
    ),
    "team": SimulatorSpec(
        name="team",
        func=_simulate_team_entry,
        repeat_func=_team_repeat_driver,
        options_class=TeamOptions,
        required="horizon",
        extra_keywords=("sensors",),
        summary="K independent sensors to a shared physical horizon; "
        "coverage is the union of in-range intervals",
    ),
}


def _team_matrices(matrix, sensors: Optional[int]):
    """Expand the façade's ``matrix`` argument into the per-sensor
    list."""
    if isinstance(matrix, np.ndarray) and matrix.ndim == 3:
        matrices = list(matrix)
    elif isinstance(matrix, (list, tuple)):
        matrices = list(matrix)
    else:
        matrices = [np.asarray(matrix, dtype=float)] * (
            1 if sensors is None else int(sensors)
        )
        return matrices
    if sensors is not None and int(sensors) != len(matrices):
        raise ValueError(
            f"sensors={sensors} conflicts with the {len(matrices)} "
            "matrices passed"
        )
    return matrices


def simulate(
    topology: Topology,
    matrix,
    kind: str = "single",
    transitions: Optional[int] = None,
    horizon: Optional[float] = None,
    seed=None,
    options=None,
    repetitions: Optional[int] = None,
    execution=None,
    transport: Optional[str] = None,
    **kwargs,
):
    """Run the simulator kind named ``kind`` on ``topology``.

    Parameters
    ----------
    topology:
        The physical PoI layout.
    matrix:
        Row-stochastic transition matrix.  ``kind="team"`` also accepts
        a sequence of per-sensor matrices (or a 3-D stack); a single
        matrix is replicated across the team (see ``sensors``).
    kind:
        A key of :data:`SIMULATOR_REGISTRY` (``"single"`` or
        ``"team"``).
    transitions:
        ``kind="single"`` only: number of measured Markov transitions.
    horizon:
        ``kind="team"`` only: physical length of the measured window in
        seconds.
    seed:
        RNG seed (see :mod:`repro.utils.rng`).
    options:
        The kind's options dataclass
        (:class:`~repro.simulation.engine.SimulationOptions` /
        :class:`TeamOptions`), or a plain mapping coerced into it
        (unknown keys raise :class:`ValueError` naming them), or
        ``None`` for the kind's defaults.
    repetitions:
        When given, run that many independent replications through the
        kind's executor-backed fan-out driver and return the list of
        results; each replication draws from its own pre-spawned
        stream, so the list is bit-identical on every backend.
    execution:
        Replicated runs only: a :mod:`repro.exec` backend name
        (``"serial"``/``"thread"``/``"process"``), an
        :class:`~repro.exec.executor.Executor` instance, or ``None``
        for the ambient default.
    transport:
        Replicated runs only: the process backend's payload transport
        (``"pickle"``/``"shm"``/``"auto"``), when ``execution`` names a
        backend.
    **kwargs:
        Kind-specific keywords (the team's ``sensors``); anything the
        kind does not declare raises :class:`ValueError`.

    Returns the kind's native result
    (:class:`~repro.simulation.metrics.SimulationResult` /
    :class:`~repro.multisensor.engine.TeamSimulationResult`, or a list
    of them with ``repetitions``), bit-identical to calling the kind's
    function directly.
    """
    try:
        spec = SIMULATOR_REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(SIMULATOR_REGISTRY))
        raise ValueError(
            f"unknown kind {kind!r}; available kinds: {known}"
        ) from None

    unknown = sorted(set(kwargs) - set(spec.extra_keywords))
    if unknown:
        valid = ", ".join(spec.extra_keywords) or "none"
        raise ValueError(
            f"unknown keyword(s) for kind {kind!r}: "
            f"{', '.join(unknown)}; kind-specific keywords: {valid}"
        )
    given = {"transitions": transitions, "horizon": horizon}
    if given[spec.required] is None:
        raise ValueError(f"kind {kind!r} requires {spec.required}=")
    for name, value in given.items():
        if name != spec.required and value is not None:
            raise ValueError(
                f"kind {kind!r} does not accept {name}= "
                f"(it runs to a fixed {spec.required})"
            )
    if repetitions is None and (
        execution is not None or transport is not None
    ):
        raise ValueError(
            "execution/transport apply to replicated runs; pass "
            "repetitions= to fan out"
        )

    opts = coerce_options(spec.options_class, options, method=spec.name)

    if kind == "single":
        if repetitions is None:
            call_kwargs = {"seed": seed}
            if opts is not None:
                call_kwargs["options"] = opts
            return simulate_schedule(
                topology, matrix, transitions, **call_kwargs
            )
        if opts is not None and (
            opts.start_state is not None or opts.record_path
        ):
            raise ValueError(
                "start_state/record_path are per-run knobs; replicated "
                "runs draw independent starts and do not record paths"
            )
        driver = spec.repeat_func()
        return driver(
            topology, matrix, transitions, repetitions,
            seed=0 if seed is None else seed,
            # ``options`` given -> its warmup field governs; bare calls
            # keep the driver's warmup heuristic.
            warmup=None if opts is None else opts.warmup,
            executor=execution,
            transport=transport,
        )

    # kind == "team"
    matrices = _team_matrices(matrix, kwargs.get("sensors"))
    opts = opts or TeamOptions()
    if repetitions is None:
        return spec.func(
            topology, matrices, horizon, seed=seed, starts=opts.starts
        )
    driver = spec.repeat_func()
    return driver(
        topology, matrices, horizon, repetitions,
        seed=0 if seed is None else seed,
        starts=opts.starts,
        executor=execution,
        transport=transport,
    )
