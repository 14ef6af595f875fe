"""Construction of the timing matrices ``T_jk`` and ``T_{jk,i}``.

These implement the notation of Section III-A:

* ``T_jk`` — travel time from PoI ``j`` to PoI ``k`` along the straight-line
  path, plus the pause time ``P_k`` at the destination.  ``T_jj = P_j``.
* ``T_{jk,i}`` — time during the ``j -> k`` transition in which PoI ``i`` is
  covered, with the paper's conventions ``T_{jk,j} = 0`` (leaving the origin
  contributes nothing to its own coverage on that transition) and
  ``T_{jk,k} = P_k`` (the destination is credited with its pause time).
  Intermediate PoIs on the path are credited with the chord time their
  sensing disc intersects the path, divided by the travel speed.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.coverage import leg_chords, leg_lengths


def position_array(positions) -> np.ndarray:
    """PoI positions as an ``(M, 2)`` float array."""
    return np.array([p.as_tuple() for p in positions], float).reshape(-1, 2)


def travel_distance_matrix(positions) -> np.ndarray:
    """Pairwise Euclidean distances between PoI positions."""
    coords = position_array(positions)
    deltas = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((deltas**2).sum(axis=-1))


def travel_time_matrix(
    positions, speed: float, pause_times: np.ndarray
) -> np.ndarray:
    """Build ``T_jk = d_jk / speed + P_k`` (so ``T_jj = P_j``)."""
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    distances = travel_distance_matrix(positions)
    return distances / speed + np.asarray(pause_times, dtype=float)[None, :]


def passby_tensor(
    positions,
    sensing_radius: float,
    speed: float,
    pause_times: np.ndarray,
) -> np.ndarray:
    """Build the coverage tensor ``T[j, k, i] = T_{jk,i}``.

    The :func:`support_passby_entries` of every leg, scattered into a
    dense ``M^3`` array (8 MB at ``M = 100``, 1.5 GB at ``M = 576``;
    sparse topologies keep the entry list instead).
    """
    count = len(positions)
    j, k, i, times = support_passby_entries(
        positions, sensing_radius, speed, pause_times,
        np.ones((count, count), dtype=bool),
    )
    tensor = np.zeros((count, count, count))
    tensor[j, k, i] = times
    return tensor


def support_passby_entries(
    positions,
    sensing_radius: float,
    speed: float,
    pause_times: np.ndarray,
    adjacency: np.ndarray,
):
    """Nonzero pass-by entries ``(j, k, i, T_{jk,i})`` on supported legs.

    The sparse-topology counterpart of :func:`passby_tensor`: instead of
    the dense ``O(M^3)`` tensor (8+ GB at ``M = 1024``) it returns four
    flat arrays listing only the nonzero entries of legs allowed by the
    boolean ``adjacency`` mask.  The order fixes the bits of the sparse
    coverage term's sums: the self-loops ``T_{jj,j} = P_j`` by ``j``,
    then each leg ``j -> k`` in row-major order, with its intermediate
    PoIs' chord times by ascending ``i`` and then ``T_{jk,k} = P_k``
    (the origin gets nothing, ``T_{jk,j} = 0``).
    """
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    pause_times = np.asarray(pause_times, dtype=float)
    coords = position_array(positions)
    count = len(coords)
    adjacency = np.asarray(adjacency, dtype=bool)
    if adjacency.shape != (count, count):
        raise ValueError(
            f"adjacency must have shape {(count, count)}, "
            f"got {adjacency.shape}"
        )
    diagonal = np.nonzero(np.diag(adjacency))[0]
    origins, destinations = np.nonzero(
        adjacency & ~np.eye(count, dtype=bool)
    )
    leg, poi, t_in, t_out = leg_chords(
        coords, sensing_radius, origins, destinations
    )
    between = (poi != origins[leg]) & (poi != destinations[leg])
    leg, poi = leg[between], poi[between]
    travel = leg_lengths(coords, origins[leg], destinations[leg]) / speed
    times = (t_out[between] - t_in[between]) * travel
    # Each leg's destination pause follows its chords (stable sort).
    legs = np.concatenate((leg, np.arange(origins.size)))
    order = np.argsort(legs, kind="stable")
    legs = legs[order]
    pois = np.concatenate((poi, destinations))[order]
    times = np.concatenate((times, pause_times[destinations]))[order]
    return (
        np.concatenate((diagonal, origins[legs])),
        np.concatenate((diagonal, destinations[legs])),
        np.concatenate((diagonal, pois)),
        np.concatenate((pause_times[diagonal], times)),
    )


def check_disjoint_pois(positions, sensing_radius: float) -> None:
    """Raise if two PoIs could be covered simultaneously.

    Section III requires the PoIs to be *disjoint*: no sensor position may
    cover two PoIs at once, which holds iff all pairwise distances exceed
    ``2 * sensing_radius``.
    """
    distances = travel_distance_matrix(positions)
    close = np.triu(distances <= 2.0 * sensing_radius, k=1)
    if close.any():
        j, k = np.argwhere(close)[0]
        raise ValueError(
            f"PoIs {j} and {k} are {distances[j, k]:.3g} m apart, "
            f"within twice the sensing radius "
            f"{sensing_radius:.3g} m; the paper requires disjoint "
            "PoIs (no position covers two at once)"
        )
