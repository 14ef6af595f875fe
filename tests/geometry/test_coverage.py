"""Tests for repro.geometry.coverage."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.coverage import (
    chord_through_disc,
    coverage_fraction,
    covers_point,
    leg_chords,
    passes_through,
)
from repro.geometry.points import Point
from repro.geometry.segments import Segment


def seg(x1, y1, x2, y2):
    return Segment(Point(x1, y1), Point(x2, y2))


class TestCoversPoint:
    def test_inside(self):
        assert covers_point((0, 0), (1, 0), radius=2.0)

    def test_boundary_counts(self):
        assert covers_point((0, 0), (2, 0), radius=2.0)

    def test_outside(self):
        assert not covers_point((0, 0), (3, 0), radius=2.0)

    def test_rim_survives_round_off(self):
        """A target on the rim stays covered when the scene is rotated."""
        c, s = math.cos(1.5), math.sin(1.5)
        sensor, target = (2.0, 0.0), (2.0 - s, c)
        assert math.hypot(target[0] - 2.0, target[1]) > 1.0
        assert covers_point(sensor, target, radius=1.0)
        assert coverage_fraction(seg(*sensor, *sensor), target, 1.0) == 1.0
        legs = leg_chords(np.array([sensor, target]), 1.0, [0], [0])
        assert [a.tolist() for a in legs] == [[0, 0], [0, 1], [0.0, 0.0],
                                              [1.0, 1.0]]

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            covers_point((0, 0), (0, 0), radius=-1.0)


class TestChord:
    def test_full_crossing(self):
        """Segment passes straight through the disc center."""
        chord = chord_through_disc(seg(-10, 0, 10, 0), (0, 0), 2.0)
        assert chord is not None
        t_in, t_out = chord
        assert t_in == pytest.approx(8 / 20)
        assert t_out == pytest.approx(12 / 20)

    def test_offset_crossing(self):
        """Chord length follows Pythagoras for an offset line."""
        chord = chord_through_disc(seg(-10, 1, 10, 1), (0, 0), 2.0)
        half = math.sqrt(4 - 1)
        assert chord[1] - chord[0] == pytest.approx(2 * half / 20)

    def test_miss(self):
        assert chord_through_disc(seg(-10, 5, 10, 5), (0, 0), 2.0) is None

    def test_tangent_is_none(self):
        assert chord_through_disc(seg(-10, 2, 10, 2), (0, 0), 2.0) is None

    def test_endpoint_inside(self):
        """Segment starts inside the disc: chord starts at t=0."""
        chord = chord_through_disc(seg(0, 0, 10, 0), (0, 0), 2.0)
        assert chord[0] == 0.0
        assert chord[1] == pytest.approx(0.2)

    def test_whole_segment_inside(self):
        chord = chord_through_disc(seg(-1, 0, 1, 0), (0, 0), 5.0)
        assert chord == (0.0, 1.0)

    def test_degenerate_inside(self):
        assert chord_through_disc(seg(1, 0, 1, 0), (0, 0), 2.0) \
            == (0.0, 1.0)

    def test_degenerate_outside(self):
        assert chord_through_disc(seg(5, 0, 5, 0), (0, 0), 2.0) is None

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            chord_through_disc(seg(0, 0, 1, 0), (0, 0), -0.5)

    def test_closest_point_is_endpoint_outside(self):
        """Line passes within r, but the segment stops short."""
        assert chord_through_disc(seg(-10, 0, -5, 0), (0, 0), 2.0) is None

    @settings(max_examples=60, deadline=None)
    @given(
        cx=st.floats(-20, 20), cy=st.floats(-20, 20),
        r=st.floats(0.1, 10),
    )
    def test_chord_ordering_invariant(self, cx, cy, r):
        chord = chord_through_disc(seg(-15, -3, 12, 9), (cx, cy), r)
        if chord is not None:
            t_in, t_out = chord
            assert 0.0 <= t_in < t_out <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        cx=st.floats(-20, 20), cy=st.floats(-20, 20),
        r=st.floats(0.1, 10),
    )
    def test_chord_points_are_in_disc(self, cx, cy, r):
        s = seg(-15, -3, 12, 9)
        chord = chord_through_disc(s, (cx, cy), r)
        if chord is not None:
            mid = s.point_at((chord[0] + chord[1]) / 2)
            assert math.hypot(mid.x - cx, mid.y - cy) <= r + 1e-6


class TestCoverageFraction:
    def test_zero_when_missing(self):
        assert coverage_fraction(seg(-10, 5, 10, 5), (0, 0), 2.0) == 0.0

    def test_diameter_fraction(self):
        fraction = coverage_fraction(seg(-10, 0, 10, 0), (0, 0), 2.0)
        assert fraction == pytest.approx(4 / 20)

    def test_bounded_by_one(self):
        assert coverage_fraction(seg(-1, 0, 1, 0), (0, 0), 100.0) == 1.0


class TestPassesThrough:
    def test_middle_crossing(self):
        assert passes_through(seg(-10, 0, 10, 0), (0, 0), 2.0)

    def test_miss(self):
        assert not passes_through(seg(-10, 5, 10, 5), (0, 0), 2.0)

    def test_origin_disc_does_count_as_pass(self):
        """Coverage extending from the start still counts physically."""
        assert passes_through(seg(0, 0, 10, 0), (0, 0), 2.0)
