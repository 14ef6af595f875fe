"""Team simulation: ``K`` independent sensors on one topology.

Each sensor runs the same physical process as the single-sensor engine —
straight-line travel, pauses, pass-by chords — with its own RNG stream
and its own transition matrix.  The team's coverage of a PoI is the
*union* of the sensors' in-range intervals on a shared wall-clock; team
exposure segments are the gaps of that union.

Sensors are simulated to a common physical ``horizon`` (seconds), not a
common transition count: different matrices move at different speeds,
and the union only makes sense on an aligned clock.

:func:`simulate_team` validates its inputs and hands the work to
:func:`repro.multisensor.vectorized.simulate_team_vectorized`, which
pre-samples every sensor's path and replays it through the shared array
interval kernels.  Its results equal the per-event reference simulator
in ``tests/oracles/simulation.py`` bit for bit;
``tests/simulation/test_engine_equivalence.py`` holds the guarantee in
place and ``benchmarks/perf/bench_team.py`` re-checks it on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exec import executor_scope
from repro.topology.model import Topology
from repro.utils.linalg import is_row_stochastic
from repro.utils.rng import RandomState, spawn_generators
from repro.utils.validation import (
    check_index,
    check_positive,
    check_square,
)


@dataclass(frozen=True)
class TeamSimulationResult:
    """Measured behavior of a sensor team.

    All times are physical seconds on the shared clock, which runs from
    ``0`` to ``horizon``.

    **Start-state convention.**  Each sensor begins the measured window
    at physical time zero already located at its start PoI — drawn
    uniformly from the sensor's own spawned stream when no explicit
    ``starts`` are given (the draw consumes that stream *before* its
    transition uniforms).  The start PoI's coverage begins with the
    sensor's first transition interval (a dwell or the departure leg),
    exactly like the single-sensor engine's occupancy convention, and a
    PoI counts an exposure segment from time zero only if it is uncovered
    until some sensor's first interval there.  Per-sensor ``transitions``
    counts include the final transition that crosses the horizon (its
    intervals are clipped to ``[0, horizon]``).

    Attributes
    ----------
    sensors:
        Team size ``K``.
    horizon:
        Length of the measured window.
    coverage_shares:
        Per-PoI fraction of the window covered by *at least one* sensor
        (the union of the team's in-range intervals).
    per_sensor_shares:
        ``(K, M)`` array of each sensor's individual coverage fractions.
    exposure_mean:
        Per-PoI mean length of maximal uncovered intervals (``nan`` for a
        PoI with no completed gap).  The stretch after the last covered
        interval up to the horizon is an *incomplete* gap and is not
        counted.
    exposure_counts:
        Per-PoI number of completed uncovered intervals.
    transitions:
        Per-sensor number of transitions begun within the horizon.
    """

    sensors: int
    horizon: float
    coverage_shares: np.ndarray
    per_sensor_shares: np.ndarray
    exposure_mean: np.ndarray
    exposure_counts: np.ndarray
    transitions: np.ndarray

    @property
    def size(self) -> int:
        """Number of PoIs."""
        return self.coverage_shares.shape[0]


def simulate_team(
    topology: Topology,
    matrices: Sequence[np.ndarray],
    horizon: float,
    seed: RandomState = None,
    starts: Optional[Sequence[int]] = None,
) -> TeamSimulationResult:
    """Simulate a team of sensors for ``horizon`` seconds.

    Parameters
    ----------
    topology:
        The shared PoI layout.
    matrices:
        One row-stochastic matrix per sensor.  Pass the same matrix ``K``
        times for a homogeneous team.
    horizon:
        Physical length of the measured window, seconds.
    seed:
        Master seed; each sensor gets an independent spawned stream.
    starts:
        Optional per-sensor start PoIs (defaults to independent uniform
        draws, one from each sensor's own stream — see the start-state
        convention on :class:`TeamSimulationResult`).  Each entry must
        be a PoI index in ``[0, M)``.
    """
    horizon = check_positive("horizon", horizon)
    matrices = [check_square(f"matrices[{k}]", m)
                for k, m in enumerate(matrices)]
    if not matrices:
        raise ValueError("at least one sensor matrix is required")
    size = topology.size
    for index, matrix in enumerate(matrices):
        if matrix.shape[0] != size:
            raise ValueError(
                f"matrices[{index}] has size {matrix.shape[0]}, topology "
                f"has {size} PoIs"
            )
        if not is_row_stochastic(matrix):
            raise ValueError(f"matrices[{index}] is not row-stochastic")
    if starts is not None:
        if len(starts) != len(matrices):
            raise ValueError(
                f"starts has length {len(starts)}, expected "
                f"{len(matrices)}"
            )
        starts = [
            check_index(f"starts[{index}]", start, size)
            for index, start in enumerate(starts)
        ]

    streams = spawn_generators(seed, len(matrices))
    # Looked up at call time so wrappers installed on the module (the
    # end-to-end benchmark's tracer) see every call.
    from repro.multisensor.vectorized import simulate_team_vectorized

    coverage, per_sensor_shares, exposure_mean, exposure_counts, \
        transitions = simulate_team_vectorized(
            topology, matrices, horizon, streams, starts
        )
    return TeamSimulationResult(
        sensors=len(matrices),
        horizon=horizon,
        coverage_shares=coverage,
        per_sensor_shares=per_sensor_shares,
        exposure_mean=exposure_mean,
        exposure_counts=exposure_counts,
        transitions=transitions,
    )


def _simulate_team_task(task):
    """One ``simulate_team_repeatedly`` replication (pickles for the
    process backend)."""
    topology, matrices, horizon, starts, rng = task
    return simulate_team(
        topology, matrices, horizon, seed=rng, starts=starts
    )


def simulate_team_repeatedly(
    topology: Topology,
    matrices: Sequence[np.ndarray],
    horizon: float,
    repetitions: int,
    seed: RandomState = 0,
    starts: Optional[Sequence[int]] = None,
    executor=None,
    transport=None,
) -> List[TeamSimulationResult]:
    """Run ``repetitions`` independent team simulations; return them all.

    Replications fan out over the :mod:`repro.exec` execution layer —
    ``executor`` accepts a backend name (``"serial"``/``"thread"``/
    ``"process"``, closed before this returns), an ``Executor``
    instance, or ``None`` for the ambient default (set by ``--jobs`` on
    the CLI or :func:`repro.exec.using_executor`).  Each replication
    draws from its own pre-spawned child stream, so results are
    bit-identical on every backend and at every worker count.

    ``transport`` selects the process backend's payload transport when
    ``executor`` names a backend (see :mod:`repro.exec.shm`).
    """
    if repetitions < 1:
        raise ValueError(
            f"repetitions must be >= 1, got {repetitions}"
        )
    # Warm the chord-table cache before the tasks are built: every task
    # (and every pickled copy shipped to process workers) then reuses the
    # one precomputed geometry instead of redoing the O(M^3)
    # intersections.
    topology.chord_table()
    matrices = list(matrices)
    tasks = [
        (topology, matrices, horizon, starts, rng)
        for rng in spawn_generators(seed, repetitions)
    ]
    with executor_scope(executor, transport=transport) as runner:
        return runner.map(_simulate_team_task, tasks)
