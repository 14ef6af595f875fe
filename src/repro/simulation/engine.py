"""The sensor simulation engine.

Drives a mobile sensor over a physical topology according to a transition
matrix: at each decision point the sensor tosses the constant-time coin
(row ``p_i.``), travels in a straight line at constant speed to the chosen
PoI (possibly covering intermediate PoIs en route), and pauses there.

The engine measures everything Section VI-D reports: coverage shares and
``Delta C`` under the schedule convention, physical coverage shares, and
exposure segments under both the transition-count and physical-time
conventions.

:func:`simulate_schedule` validates its inputs and hands the work to
:func:`repro.simulation.vectorized.simulate_schedule_vectorized`, which
pre-samples the whole state path and replays it through array interval
arithmetic.  Its results equal the per-step reference simulator in
``tests/oracles/simulation.py`` bit for bit (sampled path included);
``tests/simulation/test_engine_equivalence.py`` holds that guarantee in
place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.simulation.metrics import SimulationResult
from repro.topology.model import Topology
from repro.utils.linalg import is_row_stochastic
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_index, check_square


@dataclass(frozen=True)
class SimulationOptions:
    """Simulation knobs.

    ``warmup`` transitions are simulated but excluded from measurement so
    the embedded chain forgets its start state.  ``record_path`` stores the
    full state path on the result (memory: 8 bytes/transition).
    """

    start_state: Optional[int] = None
    warmup: int = 0
    record_path: bool = False

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")


def simulate_schedule(
    topology: Topology,
    matrix: np.ndarray,
    transitions: int,
    seed: RandomState = None,
    options: Optional[SimulationOptions] = None,
) -> SimulationResult:
    """Simulate ``transitions`` Markov transitions of the sensor.

    Parameters
    ----------
    topology:
        The physical PoI layout.
    matrix:
        Row-stochastic transition matrix (typically an optimizer output).
    transitions:
        Number of measured transitions (after warmup).
    seed:
        RNG seed (see :mod:`repro.utils.rng`).
    options:
        See :class:`SimulationOptions`.

    Notes
    -----
    The reported ``occupancy`` distribution counts the state occupied at
    the start of the measured window (after warmup) along with the
    destination of every measured transition, i.e. it is the empirical
    distribution of all ``transitions + 1`` states in the measured path.
    """
    options = options or SimulationOptions()
    matrix = check_square("matrix", matrix)
    size = topology.size
    if matrix.shape[0] != size:
        raise ValueError(
            f"matrix size {matrix.shape[0]} does not match topology size "
            f"{size}"
        )
    if not is_row_stochastic(matrix):
        raise ValueError("matrix must be row-stochastic")
    if transitions < 1:
        raise ValueError(f"transitions must be >= 1, got {transitions}")

    rng = as_generator(seed)
    if options.start_state is None:
        state = int(rng.integers(size))
    else:
        state = check_index("start_state", options.start_state, size)

    # Looked up at call time so wrappers installed on the module (the
    # end-to-end benchmark's tracer) see every call.
    from repro.simulation.vectorized import simulate_schedule_vectorized

    return simulate_schedule_vectorized(
        topology,
        matrix,
        transitions,
        rng,
        state,
        options.warmup,
        options.record_path,
    )
