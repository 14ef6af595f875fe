"""Grid and line topology builders.

The paper's four evaluation topologies (Fig. 1) are regular grids of cells
with PoIs at cell centers.  These builders produce that family: PoIs on a
``rows x cols`` lattice with a given cell spacing, row-major indexing
(PoI 0 at the origin, increasing x along a row, increasing y across rows).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.topology.model import DEFAULT_PAUSE, DEFAULT_SPEED, Topology

#: Default cell spacing, meters (cell size of the paper's grid maps).
DEFAULT_SPACING = 100.0
#: Default sensing radius as a fraction of the spacing.  0.3 keeps the
#: sensing discs of adjacent PoIs disjoint (0.3 + 0.3 < 1) while still
#: letting a straight diagonal or co-linear path pass through inner discs.
DEFAULT_RADIUS_FRACTION = 0.3


def lattice_positions(rows: int, cols: int, spacing: float) -> list:
    """Row-major PoI positions of a ``rows x cols`` lattice (validated)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
    if rows * cols < 2:
        raise ValueError("a grid topology needs at least 2 PoIs")
    if spacing <= 0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    return [
        (col * spacing, row * spacing)
        for row in range(rows)
        for col in range(cols)
    ]


def grid_topology(
    rows: int,
    cols: int,
    target_shares: Optional[Sequence[float]] = None,
    spacing: float = DEFAULT_SPACING,
    sensing_radius: Optional[float] = None,
    speed: float = DEFAULT_SPEED,
    pause_times=DEFAULT_PAUSE,
    name: Optional[str] = None,
) -> Topology:
    """Build a ``rows x cols`` lattice of PoIs.

    ``target_shares`` defaults to the uniform allocation.  The default
    sensing radius is ``DEFAULT_RADIUS_FRACTION * spacing``.
    """
    positions = lattice_positions(rows, cols, spacing)
    count = rows * cols
    if target_shares is None:
        target_shares = np.full(count, 1.0 / count)
    if sensing_radius is None:
        sensing_radius = DEFAULT_RADIUS_FRACTION * spacing
    return Topology(
        positions=positions,
        target_shares=target_shares,
        sensing_radius=sensing_radius,
        speed=speed,
        pause_times=pause_times,
        name=name or f"grid-{rows}x{cols}",
    )


def line_topology(
    count: int,
    target_shares: Optional[Sequence[float]] = None,
    spacing: float = DEFAULT_SPACING,
    sensing_radius: Optional[float] = None,
    speed: float = DEFAULT_SPEED,
    pause_times=DEFAULT_PAUSE,
    name: Optional[str] = None,
) -> Topology:
    """Build ``count`` PoIs on a straight line.

    On a line topology every trip between non-adjacent PoIs passes through
    the sensing discs of all PoIs in between — the strongest form of the
    pass-by coupling (``T_{jk,i} > 0`` for intermediate ``i``) described in
    Section III.
    """
    if count < 2:
        raise ValueError(f"a line topology needs at least 2 PoIs, got {count}")
    return grid_topology(
        rows=1,
        cols=count,
        target_shares=target_shares,
        spacing=spacing,
        sensing_radius=sensing_radius,
        speed=speed,
        pause_times=pause_times,
        name=name or f"line-{count}",
    )
