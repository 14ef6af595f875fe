"""Vectorized simulation engine: pre-sampled paths, array interval math.

Replays the same stochastic process as the per-step reference simulator
in ``tests/oracles/simulation.py`` — and produces **bit-identical**
results — but in whole-path array passes instead of one Python iteration
per transition:

1. **Pre-sampled path.**  All warmup + measured uniforms come from one
   vectorized ``rng.random(n)`` call (NumPy fills the array from the same
   bitstream as ``n`` scalar draws), then
   :func:`repro.markov.sampling.replay_uniforms` maps them through the
   row CDFs.  Sampled paths therefore match the oracle's
   one-draw-per-step loop exactly.
2. **Leg gathers.**  Transition durations, schedule-convention coverage
   rows, and chord fractions are gathers against the topology's cached
   :meth:`~repro.topology.model.Topology.chord_table` and timing
   matrices, indexed by the ``(origin, destination)`` pairs of the path.
3. **Interval arithmetic.**  Per-PoI covered time and physical exposure
   gaps are computed by :func:`repro.simulation.intervals.grouped_coverage`
   over the full coverage-interval stream at once; transition-count
   exposure segments reduce to ``np.bincount`` identities over arrival
   and departure steps.

Bit-exactness relies on three properties, each locked in by the oracle
matrix in ``tests/simulation/test_engine_equivalence.py``:

* ``np.cumsum`` is a *sequential* left-to-right sum, so the physical
  clock grid equals the oracle's running ``clock += duration``
  bit for bit (and chunked column sums continue a sequence exactly by
  seeding the next chunk's cumulative sum with the carry row);
* interval endpoints are built with the same elementwise expressions
  (same operands, same association) the oracle evaluates per
  step, and a *stable* sort groups them by PoI without reordering each
  PoI's timeline;
* integer-valued statistics (visit counts, occupancy, exposure segment
  sums) are exact in double precision regardless of summation order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.markov.sampling import replay_uniforms
from repro.simulation.intervals import grouped_coverage
from repro.simulation.metrics import SimulationResult
from repro.topology.model import Topology
from repro.utils.linalg import cumulative_rows

#: Rows per chunk of the sequential pass-by column sum.  Sized so a
#: gathered ``chunk x M`` block stays cache-resident between the gather
#: and the reduction; chunking never changes the summation order.
_COLSUM_CHUNK = 16_384


def _sequential_leg_colsum(
    passby: np.ndarray, legs: np.ndarray
) -> np.ndarray:
    """Sum ``passby[origin_t, dest_t]`` rows in step order.

    Equivalent to the oracle's per-step
    ``covered += passby[origin, destination]``: NumPy reduces a
    C-contiguous array over axis 0 with a plain sequential accumulation
    (pairwise summation only applies along the contiguous axis), and
    each chunk carries the previous partial sum as its row 0, so the
    addition order matches the oracle exactly.  Bit-identity is asserted
    by the oracle matrix and re-checked on every benchmark run.
    """
    size = passby.shape[2]
    flat = passby.reshape(-1, size)
    buffer = np.empty((min(_COLSUM_CHUNK, legs.size) + 1, size))
    buffer[0] = 0.0
    for lo in range(0, legs.size, _COLSUM_CHUNK):
        chunk = legs[lo:lo + _COLSUM_CHUNK]
        buffer[1:chunk.size + 1] = flat[chunk]
        buffer[0] = buffer[:chunk.size + 1].sum(axis=0)
    return buffer[0].copy()


def _transition_exposure(
    origins: np.ndarray,
    dests: np.ndarray,
    start_state: int,
    size: int,
) -> tuple:
    """Per-PoI mean exposure segment lengths in transitions.

    Mirrors the oracle's ``ExposureTracker`` (``tests/oracles/events.py``):
    PoI ``i``'s segments run from each departure step (state reached
    after leaving ``i``; step 0 for every PoI except the start) to the
    next arrival at ``i``, with self-loops ignored.  Because departures
    and arrivals strictly alternate per PoI — beginning with a (possibly
    implicit) departure — the ``k`` completed segments pair the first
    ``k`` starts with the ``k`` arrivals, so the summed lengths are
    ``sum(arrival steps) - sum(paired start steps)``; the only
    possibly-unpaired start is the latest one.  All quantities are
    integer-valued, hence exact.
    """
    steps = np.arange(1, origins.size + 1)
    moved = origins != dests
    moved_origins = origins[moved]
    moved_dests = dests[moved]
    moved_steps = steps[moved]

    arrival_count = np.bincount(moved_dests, minlength=size)
    departure_count = np.bincount(moved_origins, minlength=size)
    arrival_sum = np.bincount(
        moved_dests, weights=moved_steps, minlength=size
    )
    departure_sum = np.bincount(
        moved_origins, weights=moved_steps, minlength=size
    )

    implicit_start = (np.arange(size) != start_state).astype(np.int64)
    pending = departure_count + implicit_start - arrival_count
    last_departure = np.full(size, -1, dtype=np.int64)
    np.maximum.at(last_departure, moved_origins, moved_steps)
    # The unpaired start is the latest departure, or the implicit step-0
    # start for a PoI that was never visited at all.
    unpaired = np.where(last_departure >= 0, last_departure, 0)
    segment_sum = arrival_sum - (
        departure_sum - np.where(pending > 0, unpaired, 0)
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(
            arrival_count > 0,
            segment_sum / np.maximum(arrival_count, 1),
            np.nan,
        )
    return mean, arrival_count


def leg_interval_stream(
    topology: Topology,
    origins: np.ndarray,
    dests: np.ndarray,
    clock_starts: np.ndarray,
    durations: np.ndarray,
) -> tuple:
    """Coverage intervals of a timed leg sequence, in emission order.

    ``origins[t] -> dests[t]`` is the step starting at physical time
    ``clock_starts[t]`` and lasting ``durations[t]``.  Returns
    ``(poi, starts, ends)`` arrays with one entry per coverage interval,
    ordered exactly as the per-step oracles emit them: for each
    step in sequence, a dwell interval for a self-loop, otherwise the
    leg's pass-by chords (in chord-table order) followed by the
    destination pause.  Endpoints are built with the same elementwise
    expressions the oracles evaluate per step, so they are
    bit-identical to the scalar bookkeeping.

    Shared by the single-sensor engine and the team engine (which runs it
    once per sensor on the shared wall-clock).
    """
    steps = origins.size
    size = topology.size
    pauses = topology.pause_times
    table = topology.chord_table()
    legs = origins * size + dests

    moved = origins != dests
    per_step = np.where(moved, table.counts[legs] + 1, 1)
    total = int(per_step.sum())
    step_of = np.repeat(np.arange(steps), per_step)
    first_of_step = np.concatenate(([0], np.cumsum(per_step)[:-1]))
    slot = np.arange(total) - first_of_step[step_of]

    stream_moved = moved[step_of]
    is_pause = stream_moved & (slot == per_step[step_of] - 1)
    is_chord = stream_moved & ~is_pause
    is_dwell = ~stream_moved

    poi = np.empty(total, dtype=np.int64)
    interval_starts = np.empty(total)
    interval_ends = np.empty(total)
    travel = durations - pauses[dests]

    t = step_of[is_dwell]
    poi[is_dwell] = origins[t]
    interval_starts[is_dwell] = clock_starts[t]
    interval_ends[is_dwell] = clock_starts[t] + durations[t]

    t = step_of[is_chord]
    chord_at = table.offsets[legs[t]] + slot[is_chord]
    poi[is_chord] = table.poi[chord_at]
    interval_starts[is_chord] = clock_starts[t] + table.t_in[chord_at] \
        * travel[t]
    interval_ends[is_chord] = clock_starts[t] + table.t_out[chord_at] \
        * travel[t]

    t = step_of[is_pause]
    arrival = clock_starts[t] + travel[t]
    poi[is_pause] = dests[t]
    interval_starts[is_pause] = arrival
    interval_ends[is_pause] = arrival + durations[t] - travel[t]

    return poi, interval_starts, interval_ends


def presample_horizon_legs(
    cumulative: np.ndarray,
    travel_times: np.ndarray,
    horizon: float,
    rng: np.random.Generator,
    start: int,
) -> tuple:
    """Pre-sample a state path until the physical clock reaches ``horizon``.

    Vectorized counterpart of the oracle loop ``while clock < horizon:
    draw, step, clock += duration``.  Uniforms are drawn in chunks
    (``rng.random(n)`` fills the array from the same bitstream as ``n``
    scalar draws); drawing *past* the stopping step is allowed because the
    surplus uniforms are never used and the per-sensor stream is not
    consumed again afterwards.  The clock grid is built by seeding each
    chunk's ``np.cumsum`` with the previous chunk's carry value, which
    reproduces the oracle's sequential ``clock += duration`` additions bit
    for bit.

    Returns ``(path, durations, grid)`` truncated to exactly the ``T``
    transitions the oracle takes (step ``t`` happens iff the
    clock before it is ``< horizon``): ``path`` holds ``T + 1`` states,
    ``durations[t]`` is step ``t``'s physical length and ``grid[t]`` the
    clock after it (``grid[-1] >= horizon``).
    """
    mean_duration = max(float(travel_times.mean()), 1e-300)
    state = int(start)
    dest_chunks = []
    duration_chunks = []
    grid_chunks = []
    carry = 0.0
    guess = max(64, int(horizon / mean_duration) + 16)
    while True:
        draws = rng.random(guess)
        chunk = replay_uniforms(cumulative, draws, state)
        durations = travel_times[chunk[:-1], chunk[1:]]
        seeded = np.empty(durations.size + 1)
        seeded[0] = carry
        seeded[1:] = durations
        grid = np.cumsum(seeded)[1:]
        dest_chunks.append(chunk[1:])
        duration_chunks.append(durations)
        grid_chunks.append(grid)
        carry = float(grid[-1])
        state = int(chunk[-1])
        if carry >= horizon:
            break
        # Undershot the horizon (e.g. many short self-loops): grow
        # geometrically so pathological paths cost O(log) chunks.
        guess *= 2
    path = np.concatenate(
        ([np.int64(start)], *dest_chunks)
    )
    durations = np.concatenate(duration_chunks)
    grid = np.concatenate(grid_chunks)
    taken = int(np.searchsorted(grid, horizon, side="left")) + 1
    return path[:taken + 1], durations[:taken], grid[:taken]


def horizon_interval_stream(
    topology: Topology,
    matrix: np.ndarray,
    horizon: float,
    rng: np.random.Generator,
    start: Optional[int],
) -> tuple:
    """One sensor's coverage intervals on ``[0, horizon]``.

    Draws the start PoI uniformly from ``rng`` when ``start`` is ``None``
    (before any transition uniform), pre-samples the path until the clock
    reaches ``horizon`` and clips its :func:`leg_interval_stream`: an
    interval starting at or after ``horizon`` is dropped, the others end
    at ``min(end, horizon)``.  Returns ``(poi, starts, ends, transitions)``
    with the intervals in emission order.

    Shared by the team engine (once per sensor) and the event-capture
    measurement (:mod:`repro.simulation.capture`).
    """
    if start is None:
        start = int(rng.integers(topology.size))
    path, durations, grid = presample_horizon_legs(
        cumulative_rows(matrix), topology.travel_times, horizon, rng, start
    )
    origins = path[:-1]
    clock_starts = np.concatenate(([0.0], grid[:-1]))
    poi, lo, hi = leg_interval_stream(
        topology, origins, path[1:], clock_starts, durations
    )
    keep = lo < horizon
    return poi[keep], lo[keep], np.minimum(hi[keep], horizon), origins.size


def simulate_schedule_vectorized(
    topology: Topology,
    matrix: np.ndarray,
    transitions: int,
    rng: np.random.Generator,
    start: int,
    warmup: int,
    record_path: bool,
) -> SimulationResult:
    """Vectorized engine body; called by ``simulate_schedule``.

    Inputs are pre-validated; ``start`` is the state *before* warmup and
    ``rng`` is positioned exactly where the oracle's would be
    (after any start-state draw).
    """
    size = topology.size
    cumulative = cumulative_rows(matrix)
    draws = rng.random(warmup + transitions)
    walk = replay_uniforms(cumulative, draws, start)
    path = walk[warmup:]
    start_state = int(path[0])
    origins = path[:-1]
    dests = path[1:]

    travel_times = topology.travel_times
    passby = topology.passby
    phi = topology.target_shares

    durations = travel_times[origins, dests]
    # Sequential prefix sums: grid[t] is the oracle's ``clock``
    # after measured step t+1, bit for bit.
    grid = np.cumsum(durations)
    clock_starts = np.concatenate(([0.0], grid[:-1]))
    clock = float(grid[-1])
    total_schedule = clock  # same sequential sum of the same durations

    legs = origins * size + dests
    covered_schedule = _sequential_leg_colsum(passby, legs)
    visit_counts = np.bincount(dests, minlength=size)
    occupancy = np.bincount(path, minlength=size)

    # ---- coverage-interval stream, in emission (timeline) order ------ #
    poi, interval_starts, interval_ends = leg_interval_stream(
        topology, origins, dests, clock_starts, durations
    )

    # Stable sort: PoI-major, each PoI's intervals kept in timeline order
    # — the exact sequences the oracle feeds its accumulators.  NumPy
    # radix-sorts the narrowest integer key holding ``size`` PoIs.
    order = np.argsort(poi.astype(np.min_scalar_type(size)), kind="stable")
    covered, gap_sum, gap_count = grouped_coverage(
        poi[order], interval_starts[order], interval_ends[order], size
    )

    # ---- assemble metrics (same expressions as the oracle) ----------- #
    coverage_shares = covered_schedule / total_schedule
    physical_shares = covered / clock
    deviations = (covered_schedule - phi * total_schedule) / transitions
    delta_c = float(np.sum(deviations**2))

    exposure_transitions, _ = _transition_exposure(
        origins, dests, start_state, size
    )
    finite = np.nan_to_num(exposure_transitions, nan=0.0)
    e_bar_transitions = float(np.sqrt(np.sum(finite**2)))

    with np.errstate(invalid="ignore", divide="ignore"):
        exposure_physical = np.where(
            gap_count > 0, gap_sum / np.maximum(gap_count, 1), np.nan
        )
    mean_duration = clock / transitions
    normalized = np.nan_to_num(exposure_physical / mean_duration, nan=0.0)
    e_bar_physical = float(np.sqrt(np.sum(normalized**2)))

    return SimulationResult(
        transitions=transitions,
        total_time=clock,
        coverage_shares=coverage_shares,
        physical_coverage_shares=physical_shares,
        delta_c=delta_c,
        exposure_transitions=exposure_transitions,
        e_bar_transitions=e_bar_transitions,
        exposure_physical=exposure_physical,
        e_bar_physical_normalized=e_bar_physical,
        mean_transition_duration=float(mean_duration),
        visit_counts=visit_counts,
        occupancy=occupancy / occupancy.sum(),
        start_state=start_state,
        end_state=int(path[-1]),
        path=path.copy() if record_path else None,
    )
