"""Tests for repro.topology.model."""

import numpy as np
import pytest

from repro import paper_topology
from repro.geometry.points import Point
from repro.topology import model
from repro.topology.grid import line_topology
from repro.topology.model import PoI, Topology
from tests.oracles import geometry as oracle


@pytest.fixture
def square():
    """2x2 grid with corner-heavy targets."""
    return Topology(
        positions=[(0, 0), (100, 0), (0, 100), (100, 100)],
        target_shares=[0.4, 0.1, 0.1, 0.4],
        sensing_radius=30.0,
    )


class TestPoI:
    def test_valid(self):
        poi = PoI(index=0, position=Point(0, 0), target_share=0.3)
        assert poi.target_share == 0.3

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="index"):
            PoI(index=-1, position=Point(0, 0), target_share=0.5)

    def test_rejects_bad_share(self):
        with pytest.raises(ValueError, match="target_share"):
            PoI(index=0, position=Point(0, 0), target_share=1.5)


class TestTopologyConstruction:
    def test_size(self, square):
        assert square.size == 4
        assert len(square) == 4

    def test_shares_roundtrip(self, square):
        np.testing.assert_allclose(
            square.target_shares, [0.4, 0.1, 0.1, 0.4]
        )

    def test_rejects_single_poi(self):
        with pytest.raises(ValueError, match="at least 2"):
            Topology([(0, 0)], [1.0], sensing_radius=1.0)

    def test_rejects_share_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Topology([(0, 0), (100, 0)], [0.5, 0.3, 0.2],
                     sensing_radius=10.0)

    def test_rejects_share_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Topology([(0, 0), (100, 0)], [0.5, 0.6], sensing_radius=10.0)

    def test_rejects_overlapping_pois(self):
        with pytest.raises(ValueError, match="disjoint"):
            Topology([(0, 0), (10, 0)], [0.5, 0.5], sensing_radius=10.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError, match="sensing_radius"):
            Topology([(0, 0), (100, 0)], [0.5, 0.5], sensing_radius=0.0)

    def test_rejects_bad_pause(self):
        with pytest.raises(ValueError, match="pause_times"):
            Topology([(0, 0), (100, 0)], [0.5, 0.5], sensing_radius=10.0,
                     pause_times=0.0)

    def test_scalar_pause_broadcast(self, square):
        np.testing.assert_allclose(square.pause_times, 10.0)

    def test_per_poi_pauses(self):
        topo = Topology([(0, 0), (100, 0)], [0.5, 0.5],
                        sensing_radius=10.0, pause_times=[5.0, 15.0])
        np.testing.assert_allclose(topo.pause_times, [5.0, 15.0])

    def test_default_name(self):
        topo = Topology([(0, 0), (100, 0)], [0.5, 0.5],
                        sensing_radius=10.0)
        assert "2poi" in topo.name


class TestDerivedMatrices:
    def test_travel_times_shape(self, square):
        assert square.travel_times.shape == (4, 4)

    def test_travel_time_diagonal_is_pause(self, square):
        np.testing.assert_allclose(
            np.diag(square.travel_times), square.pause_times
        )

    def test_diagonal_distance(self, square):
        assert square.distances[0, 3] == pytest.approx(100 * np.sqrt(2))

    def test_passby_shape(self, square):
        assert square.passby.shape == (4, 4, 4)

    def test_returned_arrays_are_copies(self, square):
        square.travel_times[0, 0] = -1.0
        assert square.travel_times[0, 0] != -1.0
        square.passby[0, 0, 0] = -1.0
        assert square.passby[0, 0, 0] != -1.0

    def test_grid_diagonal_has_no_intermediates(self, square):
        assert square.intermediate_pois(0, 3) == []

    def test_self_transition_has_no_intermediates(self, square):
        assert square.intermediate_pois(2, 2) == []


class TestLineIntermediates:
    def test_line_pass_through(self):
        topo = Topology(
            positions=[(0, 0), (100, 0), (200, 0)],
            target_shares=[0.4, 0.2, 0.4],
            sensing_radius=30.0,
        )
        assert topo.intermediate_pois(0, 2) == [1]
        assert topo.intermediate_pois(2, 0) == [1]
        assert topo.intermediate_pois(0, 1) == []

    @pytest.mark.parametrize(
        "build", [lambda: paper_topology(3), lambda: line_topology(6)],
        ids=["paper-3", "line-6"],
    )
    def test_no_dense_tensor(self, build, monkeypatch):
        """One leg's intermediates never build the ``M^3`` tensor."""
        topology = build()
        reference = oracle.passby_tensor(
            topology.positions, topology.sensing_radius, topology.speed,
            topology.pause_times,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("dense pass-by tensor built")

        monkeypatch.setattr(model, "passby_tensor", refuse)
        for j in range(topology.size):
            for k in range(topology.size):
                expected = [
                    i for i in range(topology.size)
                    if j != k and i not in (j, k) and reference[j, k, i] > 0
                ]
                assert topology.intermediate_pois(j, k) == expected
