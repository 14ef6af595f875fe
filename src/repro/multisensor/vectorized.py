"""Vectorized team engine: K pre-sampled sensors, shared interval kernels.

Replays the same stochastic process as the per-event reference simulator
in ``tests/oracles/simulation.py`` — and produces **bit-identical**
:class:`~repro.multisensor.engine.TeamSimulationResult` values — but in
whole-path array passes instead of one Python iteration per transition
and one Python tuple per coverage interval:

1. **Per-sensor interval streams.**
   :func:`repro.simulation.vectorized.horizon_interval_stream` draws
   each sensor's uniforms in vectorized chunks from the *same* spawned
   stream the oracle hands it, walks them through the row CDFs until the
   shared physical ``horizon`` is reached (reproducing the oracle's
   sequential ``clock += duration`` grid bit for bit), gathers the leg
   intervals — dwells, pass-by chords against the cached
   :meth:`~repro.topology.model.Topology.chord_table`, destination
   pauses — and clips them to ``[0, horizon]`` with the same comparisons
   the oracle applies per interval.
2. **Shared interval kernels.**  Per-sensor coverage fractions reduce to
   one :func:`repro.simulation.intervals.grouped_union_length` pass over
   groups ``sensor * size + poi``, and the team's K-way union — coverage
   of a PoI by *at least one* sensor, exposure gaps where *no* sensor is
   in range — reduces to one
   :func:`repro.simulation.intervals.grouped_coverage` pass over the
   sensor-concatenated, PoI-major interval stream.

Bit-exactness mirrors the single-sensor engine's argument
(:mod:`repro.simulation.vectorized`): sequential ``np.cumsum`` clocks,
identical elementwise interval expressions, and stable lexsorts that feed
each kernel the exact sequences the oracle's accumulators see
(sensor-major emission order within equal start times).  Over-drawing a
sensor's RNG stream past its stopping step is harmless: the surplus
uniforms are never used and the spawned stream is never consumed again.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.simulation.intervals import grouped_coverage, grouped_union_length
from repro.simulation.vectorized import horizon_interval_stream
from repro.topology.model import Topology


def _major_order(
    groups: np.ndarray, starts: np.ndarray, size: int
) -> np.ndarray:
    """Indices sorting a stream group-major, by start within each group.

    ``np.lexsort`` is stable, so intervals with equal starts keep their
    incoming (sensor-major emission) order — exactly the order Python's
    stable ``sorted(..., key=start)`` produces from the same stream.
    The group key is cast to the narrowest integer type holding
    ``size`` groups: NumPy radix-sorts keys of 16 bits or fewer.
    """
    return np.lexsort((starts, groups.astype(np.min_scalar_type(size))))


def simulate_team_vectorized(
    topology: Topology,
    matrices: Sequence[np.ndarray],
    horizon: float,
    streams: Sequence[np.random.Generator],
    starts: Optional[Sequence[int]],
) -> tuple:
    """Vectorized team engine body; called by ``simulate_team``.

    Inputs are pre-validated; ``streams`` holds one spawned generator per
    sensor, positioned exactly where the oracle's would be.  Returns
    the raw field tuple ``(coverage, per_sensor_shares, exposure_mean,
    exposure_counts, transitions)`` for the dispatcher to assemble.
    """
    size = topology.size
    count = len(matrices)

    transitions = np.zeros(count, dtype=np.int64)
    poi_parts = []
    start_parts = []
    end_parts = []
    for index, (matrix, rng) in enumerate(zip(matrices, streams)):
        start = None if starts is None else int(starts[index])
        poi, lo, hi, transitions[index] = horizon_interval_stream(
            topology, matrix, horizon, rng, start
        )
        poi_parts.append(poi)
        start_parts.append(lo)
        end_parts.append(hi)

    # Concatenated sensor-major: the order the oracle builds its per-PoI
    # lists in.
    poi = np.concatenate(poi_parts)
    lo = np.concatenate(start_parts)
    hi = np.concatenate(end_parts)

    # Per-sensor coverage: one union pass over groups sensor * size + poi.
    sensor = np.repeat(np.arange(count), [part.size for part in poi_parts])
    groups = sensor * size + poi
    order = _major_order(groups, lo, count * size)
    per_sensor_shares = grouped_union_length(
        groups[order], lo[order], hi[order], count * size
    ).reshape(count, size) / horizon

    # K-way union on the shared clock: one grouped pass computes union
    # coverage and team exposure gaps.
    order = _major_order(poi, lo, size)
    covered, gap_sum, gap_count = grouped_coverage(
        poi[order], lo[order], hi[order], size
    )

    coverage = covered / horizon
    with np.errstate(invalid="ignore", divide="ignore"):
        exposure_mean = np.where(
            gap_count > 0, gap_sum / np.maximum(gap_count, 1), np.nan
        )
    return coverage, per_sensor_shares, exposure_mean, gap_count, \
        transitions
