"""Tests for repro.topology.timing."""

import numpy as np
import pytest

from repro.geometry.points import Point
from repro.topology.library import scalable_topology
from repro.topology.timing import (
    check_disjoint_pois,
    passby_tensor,
    travel_distance_matrix,
    travel_time_matrix,
)


@pytest.fixture
def line_points():
    """Four PoIs on a line, 100 m apart."""
    return [Point(0, 0), Point(100, 0), Point(200, 0), Point(300, 0)]


class TestDistances:
    def test_symmetric_zero_diagonal(self, line_points):
        d = travel_distance_matrix(line_points)
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_allclose(np.diag(d), 0.0)

    def test_values(self, line_points):
        d = travel_distance_matrix(line_points)
        assert d[0, 3] == pytest.approx(300.0)
        assert d[1, 2] == pytest.approx(100.0)


class TestTravelTimes:
    def test_includes_destination_pause(self, line_points):
        t = travel_time_matrix(line_points, speed=10.0,
                               pause_times=np.full(4, 10.0))
        assert t[0, 1] == pytest.approx(10.0 + 10.0)
        assert t[0, 3] == pytest.approx(30.0 + 10.0)

    def test_self_time_is_pause(self, line_points):
        pauses = np.array([5.0, 6.0, 7.0, 8.0])
        t = travel_time_matrix(line_points, speed=10.0, pause_times=pauses)
        np.testing.assert_allclose(np.diag(t), pauses)

    def test_asymmetric_pauses(self, line_points):
        pauses = np.array([5.0, 50.0, 5.0, 5.0])
        t = travel_time_matrix(line_points, speed=10.0, pause_times=pauses)
        assert t[0, 1] != t[1, 0]

    def test_rejects_bad_speed(self, line_points):
        with pytest.raises(ValueError, match="speed"):
            travel_time_matrix(line_points, speed=0.0,
                               pause_times=np.full(4, 1.0))


class TestPassbyTensor:
    def test_origin_convention(self, line_points):
        """T_{jk,j} = 0 for k != j."""
        tensor = passby_tensor(line_points, 30.0, 10.0, np.full(4, 10.0))
        for j in range(4):
            for k in range(4):
                if j != k:
                    assert tensor[j, k, j] == 0.0

    def test_destination_convention(self, line_points):
        """T_{jk,k} = P_k."""
        pauses = np.array([10.0, 11.0, 12.0, 13.0])
        tensor = passby_tensor(line_points, 30.0, 10.0, pauses)
        for j in range(4):
            for k in range(4):
                if j != k:
                    assert tensor[j, k, k] == pytest.approx(pauses[k])

    def test_self_loop(self, line_points):
        tensor = passby_tensor(line_points, 30.0, 10.0, np.full(4, 10.0))
        for j in range(4):
            assert tensor[j, j, j] == pytest.approx(10.0)
            for i in range(4):
                if i != j:
                    assert tensor[j, j, i] == 0.0

    def test_intermediate_chord_time(self, line_points):
        """Traveling 0 -> 3 crosses discs of 1 and 2: 60 m chord each."""
        tensor = passby_tensor(line_points, 30.0, 10.0, np.full(4, 10.0))
        assert tensor[0, 3, 1] == pytest.approx(6.0)
        assert tensor[0, 3, 2] == pytest.approx(6.0)

    def test_adjacent_trip_covers_no_intermediate(self, line_points):
        tensor = passby_tensor(line_points, 30.0, 10.0, np.full(4, 10.0))
        assert tensor[0, 1, 2] == 0.0
        assert tensor[0, 1, 3] == 0.0

    def test_coverage_less_than_duration(self, line_points):
        """With disjoint PoIs, total coverage cannot exceed duration."""
        pauses = np.full(4, 10.0)
        tensor = passby_tensor(line_points, 30.0, 10.0, pauses)
        durations = travel_time_matrix(line_points, 10.0, pauses)
        total = tensor.sum(axis=2)
        assert np.all(total <= durations + 1e-9)

    def test_off_line_poi_not_covered(self):
        points = [Point(0, 0), Point(200, 0), Point(100, 90)]
        tensor = passby_tensor(points, 30.0, 10.0, np.full(3, 10.0))
        # PoI 2 is 90 m off the 0 -> 1 path: outside the 30 m radius.
        assert tensor[0, 1, 2] == 0.0

    def test_near_line_poi_covered(self):
        points = [Point(0, 0), Point(200, 0), Point(100, 65)]
        tensor = passby_tensor(points, 40.0, 10.0, np.full(3, 10.0))
        # Wait: 65 > 40, not covered.
        assert tensor[0, 1, 2] == 0.0
        points = [Point(0, 0), Point(200, 0), Point(100, 81)]
        tensor = passby_tensor(points, 100.0, 10.0, np.full(3, 10.0))
        assert tensor[0, 1, 2] > 0.0

    def test_rejects_negative_radius(self, line_points):
        with pytest.raises(ValueError, match="sensing_radius"):
            passby_tensor(line_points, -1.0, 10.0, np.full(4, 10.0))


@pytest.mark.parametrize(
    "family,size",
    [("city-grid", 36), ("city-grid", 64), ("ring-of-grids", 64),
     ("ring-of-grids", 128)],
)
def test_support_entries_are_the_dense_nonzeros(family, size):
    """The sparse entry list is the dense tensor's support, bit for bit."""
    topology = scalable_topology(family, size)
    j, k, i, times = topology.passby_entries()
    dense = topology.passby
    expected = np.argwhere((dense != 0.0) & topology.adjacency[:, :, None])
    listed = np.stack((j, k, i), axis=1)
    assert np.array_equal(
        listed[np.lexsort(listed.T[::-1])], expected
    )
    assert times.tobytes() == dense[j, k, i].tobytes()


class TestDisjointness:
    def test_accepts_disjoint(self, line_points):
        check_disjoint_pois(line_points, 30.0)

    def test_rejects_overlapping(self, line_points):
        with pytest.raises(ValueError, match="disjoint"):
            check_disjoint_pois(line_points, 60.0)

    def test_boundary_case_rejected(self, line_points):
        with pytest.raises(ValueError, match="disjoint"):
            check_disjoint_pois(line_points, 50.0)
