"""Property-based geometry tests: invariances under rigid motions.

Coverage geometry must not depend on the coordinate frame: translating
or rotating the whole scene leaves chord fractions, distances, and
pass-by coverage identical.  These invariances catch subtle
formula errors (sign conventions, unnormalized projections) that
example-based tests can miss.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.coverage import chord_through_disc, coverage_fraction
from repro.geometry.points import Point, distance
from repro.geometry.segments import Segment, point_segment_distance

coords = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
angles = st.floats(0, 2 * math.pi)
radii = st.floats(0.5, 15.0)

SETTINGS = settings(max_examples=40, deadline=None)


def rotate(point: Point, theta: float) -> Point:
    c, s = math.cos(theta), math.sin(theta)
    return Point(c * point.x - s * point.y, s * point.x + c * point.y)


def translate(point: Point, dx: float, dy: float) -> Point:
    return Point(point.x + dx, point.y + dy)


@SETTINGS
@given(
    ax=coords, ay=coords, bx=coords, by=coords,
    cx=coords, cy=coords, r=radii, theta=angles,
    dx=coords, dy=coords,
)
@example(ax=0.0, ay=0.0, bx=0.0, by=0.0, cx=0.0, cy=1.0, r=1.0, theta=1.5,
         dx=2.0, dy=0.0)  # a stationary sensor with the PoI on its rim
def test_coverage_fraction_rigid_invariance(
    ax, ay, bx, by, cx, cy, r, theta, dx, dy
):
    segment = Segment(Point(ax, ay), Point(bx, by))
    center = Point(cx, cy)
    original = coverage_fraction(segment, center, r)

    def transform(p):
        return translate(rotate(p, theta), dx, dy)

    moved_segment = Segment(transform(segment.start),
                            transform(segment.end))
    moved_center = transform(center)
    moved = coverage_fraction(moved_segment, moved_center, r)
    assert moved == pytest.approx(original, abs=1e-6)


@SETTINGS
@given(
    ax=coords, ay=coords, bx=coords, by=coords,
    cx=coords, cy=coords, r=radii,
)
def test_chord_direction_reversal_symmetry(ax, ay, bx, by, cx, cy, r):
    """Reversing the segment mirrors the chord parameters.

    Near-tangent chords are excluded: at tangency the intersection
    degenerates to a point and floating-point round-off legitimately
    flips between "no chord" and "zero-width chord" depending on the
    traversal direction (the coverage time is ~0 either way).
    """
    forward = chord_through_disc(
        Segment(Point(ax, ay), Point(bx, by)), Point(cx, cy), r
    )
    backward = chord_through_disc(
        Segment(Point(bx, by), Point(ax, ay)), Point(cx, cy), r
    )
    tangency_tol = 1e-6

    def width(chord):
        return 0.0 if chord is None else chord[1] - chord[0]

    if width(forward) <= tangency_tol or width(backward) <= tangency_tol:
        # Both directions must agree the chord is (nearly) nothing.
        assert width(forward) <= tangency_tol
        assert width(backward) <= tangency_tol
        return
    f_in, f_out = forward
    b_in, b_out = backward
    assert b_in == pytest.approx(1.0 - f_out, abs=1e-6)
    assert b_out == pytest.approx(1.0 - f_in, abs=1e-6)


@SETTINGS
@given(
    ax=coords, ay=coords, bx=coords, by=coords,
    cx=coords, cy=coords, r=radii,
)
def test_chord_length_bounded_by_diameter(ax, ay, bx, by, cx, cy, r):
    segment = Segment(Point(ax, ay), Point(bx, by))
    chord = chord_through_disc(segment, Point(cx, cy), r)
    if chord is not None and not segment.is_degenerate():
        length = (chord[1] - chord[0]) * segment.length()
        assert length <= 2 * r + 1e-6


@SETTINGS
@given(
    ax=coords, ay=coords, bx=coords, by=coords,
    px=coords, py=coords, theta=angles, dx=coords, dy=coords,
)
def test_point_segment_distance_rigid_invariance(
    ax, ay, bx, by, px, py, theta, dx, dy
):
    segment = Segment(Point(ax, ay), Point(bx, by))
    point = Point(px, py)

    def transform(p):
        return translate(rotate(p, theta), dx, dy)

    original = point_segment_distance(point, segment)
    moved = point_segment_distance(
        transform(point),
        Segment(transform(segment.start), transform(segment.end)),
    )
    assert moved == pytest.approx(original, abs=1e-6)


@SETTINGS
@given(ax=coords, ay=coords, bx=coords, by=coords)
def test_distance_symmetry_and_rotation(ax, ay, bx, by):
    a, b = Point(ax, ay), Point(bx, by)
    assert distance(a, b) == pytest.approx(distance(b, a))
    ra, rb = rotate(a, 1.234), rotate(b, 1.234)
    assert distance(ra, rb) == pytest.approx(distance(a, b), abs=1e-8)
