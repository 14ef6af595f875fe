"""Coverage geometry: how long a straight path stays within sensing range.

The paper's physical model (Section III) lets the sensor cover a PoI ``i``
whenever the sensor is within sensing range ``r`` of ``i``, including while
*traveling* between two other PoIs.  For a straight-line path this reduces to
intersecting the path segment with the disc of radius ``r`` centered at the
PoI; the length of the resulting chord divided by the travel speed is the
pass-by coverage time ``T_{jk,i}``.  :func:`chord_through_disc` is the
specification; :func:`leg_chords`, its vectorized replay, is what the
topology layer uses.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.geometry.points import PointLike, as_point, distance
from repro.geometry.segments import (
    Segment,
    line_point_distance,
    point_segment_distance,
    unclamped_projection,
)


#: Relative slack on the rim of a stationary sensor's disc.  A target at
#: distance exactly ``radius`` is covered, and round-off of a few ulps
#: (say, from translating or rotating the scene) must not uncover it.
RIM_RTOL = 1e-10


def covers_point(sensor: PointLike, target: PointLike, radius: float) -> bool:
    """Whether a sensor at ``sensor`` covers ``target`` with range ``radius``
    (up to :data:`RIM_RTOL` beyond the rim)."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return distance(sensor, target) <= radius * (1.0 + RIM_RTOL)


def chord_through_disc(
    segment: Segment, center: PointLike, radius: float
) -> Optional[Tuple[float, float]]:
    """Parameter interval of ``segment`` lying inside the disc, or ``None``.

    Returns ``(t_in, t_out)`` with ``0 <= t_in <= t_out <= 1`` such that the
    sub-segment between those parameters is exactly the part of the segment
    within distance ``radius`` of ``center``.  Returns ``None`` when the
    segment stays outside the disc, or when the intersection is a single
    tangent point (zero coverage time).

    A degenerate (zero-length) segment returns ``(0.0, 1.0)`` if its point
    is covered (:func:`covers_point`): the "path" is the point itself.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    center = as_point(center)
    length = segment.length()
    if length <= 1e-12:
        if covers_point(segment.start, center, radius):
            return (0.0, 1.0)
        return None
    if point_segment_distance(center, segment) > radius:
        return None
    # Closest approach of the infinite line, then half-chord length via
    # Pythagoras in the parameter domain of the segment.
    d_line = line_point_distance(center, segment)
    if d_line > radius:
        # The segment's closest point is an endpoint and is outside.
        return None
    t_closest = unclamped_projection(center, segment)
    half_chord = math.sqrt(max(radius * radius - d_line * d_line, 0.0)) / length
    t_in = max(0.0, t_closest - half_chord)
    t_out = min(1.0, t_closest + half_chord)
    if t_out <= t_in:
        return None
    return (t_in, t_out)


#: Leg x PoI pairs :func:`leg_chords` intersects at a time; bounds its
#: temporaries to a few MiB whatever the number of legs.
CHORD_CHUNK_PAIRS = 1 << 16


def leg_lengths(coords, origins, destinations) -> np.ndarray:
    """Leg lengths by ``math.hypot``, as :meth:`Segment.length` (``np.hypot``
    may differ in the last bit)."""
    delta = coords[destinations] - coords[origins]
    return _hypot(delta[:, 0], delta[:, 1])


def _hypot(x, y):
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, x.size)


def _max0(v):  # Python's max(0.0, v), signed zeros included
    return np.where(v > 0.0, v, 0.0)


def _min1(v):  # Python's min(1.0, v)
    return np.where(v < 1.0, v, 1.0)


def leg_chords(coords, radius: float, origins, destinations):
    """Every chord the legs ``coords[origins[n]] -> coords[destinations[n]]``
    cut through the discs of radius ``radius`` around all ``coords``.

    Returns flat arrays ``(leg, poi, t_in, t_out)``, one entry per pair
    for which :func:`chord_through_disc` returns a chord (endpoints
    included), ordered by leg (an index into ``origins``) then PoI.  The
    steps replay :func:`chord_through_disc` elementwise, with both of its
    hypots in ``math.hypot`` (the segment distance only where a slack
    ``np.hypot`` prefilter passes), so the chords equal it bit for bit.
    """
    if radius < 0:
        raise ValueError(f"sensing_radius must be >= 0, got {radius}")
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    origins = np.asarray(origins, dtype=np.intp)
    destinations = np.asarray(destinations, dtype=np.intp)
    step = max(1, CHORD_CHUNK_PAIRS // max(len(coords), 1))
    chunks = [
        _chunk_chords(coords, radius, origins[n:n + step],
                      destinations[n:n + step], n)
        for n in range(0, max(origins.size, 1), step)
    ]
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def _chunk_chords(coords, radius, origins, destinations, first):
    x, y = coords[:, 0], coords[:, 1]
    sx, sy = x[origins, None], y[origins, None]
    dx, dy = x[destinations, None] - sx, y[destinations, None] - sy
    length = leg_lengths(coords, origins, destinations)[:, None]
    degenerate = length <= 1e-12
    # Clamped projection and segment distance; a zero-length leg measures
    # from its start and never divides.
    ox, oy = x - sx, y - sy
    t_line = (ox * dx + oy * dy) / np.where(degenerate, 1.0, dx * dx + dy * dy)
    t_seg = np.where(degenerate, 0.0, _min1(_max0(t_line)))
    gap_x, gap_y = x - (sx + dx * t_seg), y - (sy + dy * t_seg)
    leg, poi = np.nonzero(np.hypot(gap_x, gap_y) <= radius * (1.0 + 1e-9))
    reach = np.where(degenerate[leg, 0], radius * (1.0 + RIM_RTOL), radius)
    inside = _hypot(gap_x[leg, poi], gap_y[leg, poi]) <= reach
    leg, poi = leg[inside], poi[inside]
    # Line distance and Pythagoras half-chord, on the hits only.
    dx, dy, t_line = dx[leg, 0], dy[leg, 0], t_line[leg, poi]
    degenerate = degenerate[leg, 0]
    length = np.where(degenerate, 1.0, length[leg, 0])
    d_line = np.abs(dx * oy[leg, poi] - dy * ox[leg, poi]) / length
    slack = radius * radius - d_line * d_line
    half = np.sqrt(np.where(slack < 0.0, 0.0, slack)) / length
    t_in = np.where(degenerate, 0.0, _max0(t_line - half))
    t_out = np.where(degenerate, 1.0, _min1(t_line + half))
    keep = degenerate | ((d_line <= radius) & (t_out > t_in))
    return first + leg[keep], poi[keep], t_in[keep], t_out[keep]


def coverage_fraction(
    segment: Segment, center: PointLike, radius: float
) -> float:
    """Fraction of ``segment`` that lies within ``radius`` of ``center``.

    The travel-time a sensor moving at constant speed spends covering the
    PoI is this fraction times the total travel time of the leg.
    """
    chord = chord_through_disc(segment, center, radius)
    if chord is None:
        return 0.0
    return chord[1] - chord[0]


def passes_through(
    segment: Segment,
    center: PointLike,
    radius: float,
    endpoint_margin: float = 1e-9,
) -> bool:
    """Whether the path passes through the disc strictly between endpoints.

    "Passing by" in the paper means the PoI is covered mid-travel even
    though it is neither the origin nor the destination of the transition.
    Endpoint grazes (coverage only at parameter 0 or 1) do not count.
    """
    chord = chord_through_disc(segment, center, radius)
    if chord is None:
        return False
    t_in, t_out = chord
    return t_out > endpoint_margin and t_in < 1.0 - endpoint_margin
