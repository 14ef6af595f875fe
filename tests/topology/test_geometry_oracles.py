"""The oracle matrix for the pass-by geometry.

:func:`repro.topology.timing.passby_tensor` and every array of
:class:`repro.topology.model.LegCoverageTable` come from one vectorized
disc intersection, :func:`repro.geometry.coverage.leg_chords`.  They must
equal the scalar triple loops in ``tests/oracles/geometry.py`` **byte
for byte** (``tobytes()``, so signed zeros count), with the same dtypes
and shapes.

The explicit cases pin paper topologies 1-4, city-grid 64 and
ring-of-grids 64, plus hand-built edge cases: a leg tangent to a disc,
a PoI beyond a leg's end, radius 0 and coincident positions.  The
hypothesis cases draw random, city-grid and ring-of-grids topologies of
at most 25 PoIs, so the oracle stays fast.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import paper_topology
from repro.geometry.points import Point
from repro.topology.library import scalable_topology
from repro.topology.model import LegCoverageTable
from repro.topology.random_gen import (
    city_grid_topology,
    random_topology,
    ring_of_grids_topology,
)
from repro.topology.timing import passby_tensor
from tests.oracles import geometry as oracle

CHORD_FIELDS = ("counts", "offsets", "poi", "t_in", "t_out")


def _assert_bytes_equal(actual, expected, label):
    assert actual.dtype == expected.dtype, label
    assert actual.shape == expected.shape, label
    assert actual.tobytes() == expected.tobytes(), label


def _check(positions, radius, speed=10.0, pause_times=None):
    if pause_times is None:
        pause_times = np.full(len(positions), 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tensor = passby_tensor(positions, radius, speed, pause_times)
        table = LegCoverageTable(positions, radius)
    _assert_bytes_equal(
        tensor,
        oracle.passby_tensor(positions, radius, speed, pause_times),
        "passby",
    )
    expected = oracle.chord_table(positions, radius)
    for name, reference in zip(CHORD_FIELDS, expected):
        _assert_bytes_equal(getattr(table, name), reference, name)
    assert table.size == len(positions)


def _check_topology(topology):
    _check(
        topology.positions, topology.sensing_radius, topology.speed,
        topology.pause_times,
    )


@pytest.mark.parametrize("identifier", [1, 2, 3, 4])
def test_paper_topologies(identifier):
    _check_topology(paper_topology(identifier))


@pytest.mark.parametrize("family", ["city-grid", "ring-of-grids"])
def test_scalable_families_at_64(family):
    _check_topology(scalable_topology(family, 64))


HAND_BUILT = {
    # The 0 -> 1 leg runs along y = 0; PoI 2's disc touches it at one
    # point (radius 30), which is no chord.
    "tangent": ([Point(0, 0), Point(100, 0), Point(50, 30)], 30.0),
    # PoI 2 projects past the leg's end: the clamped closest point is
    # the destination, inside PoI 2's disc.
    "beyond-end": ([Point(0, 0), Point(100, 0), Point(120, 10)], 30.0),
    "radius-0": ([Point(0, 0), Point(100, 0), Point(50, 0)], 0.0),
    "coincident": (
        [Point(0, 0), Point(0, 0), Point(5, 0), Point(100, 0)], 30.0
    ),
    "near-coincident": ([Point(0, 0), Point(1e-13, 0), Point(5, 0)], 30.0),
    "coincident-radius-0": ([Point(3, 4), Point(3, 4), Point(9, 4)], 0.0),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built(case):
    positions, radius = HAND_BUILT[case]
    _check(positions, radius)


def test_tangent_and_beyond_end_chords():
    """The hand-built cases exercise the branches they are named for."""
    tangent = LegCoverageTable(*HAND_BUILT["tangent"])
    assert [poi for poi, _, _ in tangent.leg(0, 1)] == [0, 1]
    beyond = LegCoverageTable(*HAND_BUILT["beyond-end"])
    assert [poi for poi, _, _ in beyond.leg(0, 1)] == [0, 1, 2]


def test_negative_radius_rejected():
    positions = [Point(0, 0), Point(100, 0)]
    with pytest.raises(ValueError, match="sensing_radius"):
        LegCoverageTable(positions, -1.0)
    with pytest.raises(ValueError, match="sensing_radius"):
        passby_tensor(positions, -1.0, 10.0, np.full(2, 10.0))


ORACLE_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@ORACLE_SETTINGS
@given(
    count=st.integers(2, 25), radius=st.floats(1.0, 50.0),
    spread=st.floats(3.0, 8.0), speed=st.floats(0.5, 30.0),
    seed=st.integers(0, 2**16),
)
def test_random_topologies(count, radius, spread, speed, seed):
    # PoIs about ``spread`` radii apart: long legs cross many discs.
    topology = random_topology(
        count, area_side=radius * spread * np.sqrt(count),
        sensing_radius=radius, speed=speed, seed=seed,
    )
    _check_topology(topology)


@ORACLE_SETTINGS
@given(
    rows=st.integers(1, 6), cols=st.integers(1, 6),
    spacing=st.floats(1.0, 500.0), fraction=st.floats(0.01, 0.49),
)
def test_city_grids(rows, cols, spacing, fraction):
    assume(2 <= rows * cols <= 25)
    _check_topology(
        city_grid_topology(
            rows, cols, spacing=spacing, sensing_radius=fraction * spacing
        )
    )


@ORACLE_SETTINGS
@given(
    clusters=st.integers(2, 4), rows=st.integers(1, 3),
    cols=st.integers(1, 3), fraction=st.floats(0.01, 0.49),
)
def test_rings_of_grids(clusters, rows, cols, fraction):
    assume(rows * cols >= 2 and clusters * rows * cols <= 25)
    _check_topology(
        ring_of_grids_topology(
            clusters, rows, cols, sensing_radius=fraction * 100.0
        )
    )
