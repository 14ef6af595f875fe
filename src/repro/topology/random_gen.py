"""Random and scalable topology generation.

Besides the rejection-sampled :func:`random_topology` used by tests and
robustness experiments, this module builds the two **scalable families**
used by the large-``M`` benchmarks (``benchmarks/perf/bench_largeM.py``):

* :func:`city_grid_topology` — a street grid where a sensor may only
  move to the four lattice neighbors (or pause), the canonical
  sparse-support topology; and
* :func:`ring_of_grids_topology` — densely connected grid clusters
  joined into a ring through single gateway legs, giving a block-sparse
  transition structure with long-range mixing bottlenecks.

Both attach an ``adjacency`` mask to the returned
:class:`~repro.topology.model.Topology`, which switches the cost layer
to the compact pass-by representation and makes the sparse linear
algebra (``linalg="sparse"``/``"auto"``) applicable; they scale to
``M = 1024`` and beyond without ever materializing an ``O(M^3)`` tensor.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.topology.grid import (
    DEFAULT_RADIUS_FRACTION,
    DEFAULT_SPACING,
    lattice_positions,
)
from repro.topology.model import DEFAULT_PAUSE, DEFAULT_SPEED, Topology
from repro.utils.rng import RandomState, as_generator


def random_topology(
    count: int,
    area_side: float = 1000.0,
    sensing_radius: float = 30.0,
    speed: float = DEFAULT_SPEED,
    pause_times=DEFAULT_PAUSE,
    dirichlet_alpha: float = 1.0,
    seed: RandomState = None,
    max_attempts: int = 10_000,
    name: Optional[str] = None,
) -> Topology:
    """Sample ``count`` PoIs uniformly in a square with disjoint discs.

    PoIs are rejected-sampled until pairwise separations exceed
    ``2 * sensing_radius`` plus a 5% safety margin.  Target shares are drawn
    from a symmetric Dirichlet with concentration ``dirichlet_alpha``
    (``alpha = 1`` gives a uniform draw over allocations; larger values
    concentrate near the uniform allocation).

    Raises ``RuntimeError`` when the square cannot accommodate the PoIs
    within ``max_attempts`` placement attempts — a sign the area is too
    small for the requested count and radius.
    """
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if area_side <= 0:
        raise ValueError(f"area_side must be > 0, got {area_side}")
    if sensing_radius <= 0:
        raise ValueError(f"sensing_radius must be > 0, got {sensing_radius}")
    if dirichlet_alpha <= 0:
        raise ValueError(
            f"dirichlet_alpha must be > 0, got {dirichlet_alpha}"
        )
    rng = as_generator(seed)
    min_separation = 2.0 * sensing_radius * 1.05
    positions: list = []
    attempts = 0
    while len(positions) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not place {count} PoIs with separation "
                f">{min_separation:.3g} m in a {area_side:.3g} m square "
                f"after {max_attempts} attempts; enlarge the area or "
                "shrink the radius"
            )
        candidate = rng.uniform(0.0, area_side, size=2)
        if all(
            np.hypot(candidate[0] - p[0], candidate[1] - p[1])
            > min_separation
            for p in positions
        ):
            positions.append((float(candidate[0]), float(candidate[1])))
    shares = rng.dirichlet(np.full(count, dirichlet_alpha))
    return Topology(
        positions=positions,
        target_shares=shares,
        sensing_radius=sensing_radius,
        speed=speed,
        pause_times=pause_times,
        name=name or f"random-{count}",
    )


def _grid_adjacency(rows: int, cols: int) -> np.ndarray:
    """4-neighbor lattice adjacency, diagonal included."""
    adjacency = np.eye(rows * cols, dtype=bool)
    index = np.arange(rows * cols).reshape(rows, cols)
    for a, b in ((index[:, :-1], index[:, 1:]), (index[:-1], index[1:])):
        adjacency[a, b] = adjacency[b, a] = True
    return adjacency


def _target_shares(count: int, dirichlet_alpha, rng) -> np.ndarray:
    """Uniform shares, or a Dirichlet draw when an alpha is given."""
    if dirichlet_alpha is None:
        return np.full(count, 1.0 / count)
    if dirichlet_alpha <= 0:
        raise ValueError(
            f"dirichlet_alpha must be > 0, got {dirichlet_alpha}"
        )
    return rng.dirichlet(np.full(count, float(dirichlet_alpha)))


def city_grid_topology(
    rows: int,
    cols: int,
    spacing: float = DEFAULT_SPACING,
    sensing_radius: Optional[float] = None,
    speed: float = DEFAULT_SPEED,
    pause_times=DEFAULT_PAUSE,
    dirichlet_alpha: Optional[float] = None,
    seed: RandomState = None,
    name: Optional[str] = None,
) -> Topology:
    """A ``rows x cols`` street grid with 4-neighbor movement only.

    PoIs sit on a square lattice; the adjacency mask allows transitions
    to the north/south/east/west neighbors plus pausing in place, so
    each row of a feasible transition matrix has at most 5 nonzeros
    regardless of ``M`` — the archetypal sparse-support topology.
    Target shares default to uniform; pass ``dirichlet_alpha`` (with a
    ``seed``) for a random allocation.
    """
    positions = lattice_positions(rows, cols, spacing)
    if sensing_radius is None:
        sensing_radius = DEFAULT_RADIUS_FRACTION * spacing
    rng = as_generator(seed)
    count = rows * cols
    return Topology(
        positions=positions,
        target_shares=_target_shares(count, dirichlet_alpha, rng),
        sensing_radius=sensing_radius,
        speed=speed,
        pause_times=pause_times,
        name=name or f"city-grid-{rows}x{cols}",
        adjacency=_grid_adjacency(rows, cols),
    )


def ring_of_grids_topology(
    clusters: int,
    cluster_rows: int = 4,
    cluster_cols: int = 4,
    spacing: float = DEFAULT_SPACING,
    sensing_radius: Optional[float] = None,
    speed: float = DEFAULT_SPEED,
    pause_times=DEFAULT_PAUSE,
    dirichlet_alpha: Optional[float] = None,
    seed: RandomState = None,
    name: Optional[str] = None,
) -> Topology:
    """Grid clusters joined into a ring through single gateway legs.

    Each of the ``clusters`` blocks is a ``cluster_rows x cluster_cols``
    lattice with internal 4-neighbor movement; consecutive clusters
    around the ring are linked by one bidirectional leg between their
    gateway PoIs (the last PoI of one block and the first of the next).
    The result is block-sparse with mixing bottlenecks at the gateways —
    a qualitatively different stress test for the sparse solvers than
    the uniform city grid.  Cluster centers are spread on a circle wide
    enough that all sensing discs stay disjoint.
    """
    if clusters < 2:
        raise ValueError(f"clusters must be >= 2, got {clusters}")
    if cluster_rows < 1 or cluster_cols < 1:
        raise ValueError(
            "cluster_rows and cluster_cols must be >= 1, got "
            f"{cluster_rows}x{cluster_cols}"
        )
    if cluster_rows * cluster_cols < 2:
        raise ValueError("each cluster needs at least 2 PoIs")
    if spacing <= 0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    if sensing_radius is None:
        sensing_radius = DEFAULT_RADIUS_FRACTION * spacing
    rng = as_generator(seed)
    block = cluster_rows * cluster_cols
    count = clusters * block

    # Ring radius: adjacent cluster centers must clear the cluster
    # diagonal plus one extra cell of slack so the blocks never touch.
    extent = np.hypot(cluster_rows - 1, cluster_cols - 1) * spacing
    min_separation = extent + 2.0 * spacing
    ring_radius = min_separation / (2.0 * np.sin(np.pi / clusters))

    offsets = np.array(lattice_positions(cluster_rows, cluster_cols, spacing))
    offsets -= offsets.mean(axis=0)
    positions = []
    for cluster in range(clusters):
        angle = 2.0 * np.pi * cluster / clusters
        center = ring_radius * np.array([np.cos(angle), np.sin(angle)])
        for offset in offsets:
            point = center + offset
            positions.append((float(point[0]), float(point[1])))

    adjacency = np.kron(
        np.eye(clusters, dtype=bool),
        _grid_adjacency(cluster_rows, cluster_cols),
    )
    # Gateway legs: each cluster's last PoI <-> the next cluster's first.
    following = np.arange(1, clusters + 1)
    exits, entries = following * block - 1, following % clusters * block
    adjacency[exits, entries] = adjacency[entries, exits] = True

    return Topology(
        positions=positions,
        target_shares=_target_shares(count, dirichlet_alpha, rng),
        sensing_radius=sensing_radius,
        speed=speed,
        pause_times=pause_times,
        name=name or (
            f"ring-{clusters}x{cluster_rows}x{cluster_cols}"
        ),
        adjacency=adjacency,
    )
