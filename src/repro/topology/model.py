"""The :class:`Topology` model: PoIs, target allocation, and derived timing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.coverage import leg_chords
from repro.geometry.points import Point, PointLike, as_point
from repro.topology.timing import (
    check_disjoint_pois,
    passby_tensor,
    position_array,
    support_passby_entries,
    travel_distance_matrix,
    travel_time_matrix,
)
from repro.utils.validation import check_distribution, check_positive

#: Default sensor travel speed, meters/second.
DEFAULT_SPEED = 10.0
#: Default pause time at a PoI upon arrival, seconds.
DEFAULT_PAUSE = 10.0


class LegCoverageTable:
    """Chord fractions of every ordered travel leg, in CSR layout.

    For the leg ``origin -> destination`` (``origin != destination``) the
    straight-line path crosses the sensing discs of some PoIs; each
    crossing is one chord ``(poi, t_in, t_out)`` with ``t`` the path
    parameter in ``[0, 1]``.  The geometry never changes between
    transitions, so the simulation engines index this table instead of
    re-intersecting segments:

    * ``counts[L]`` / ``offsets[L]`` — number of chords and the start of
      the leg's slice in the flat arrays, for the flattened leg index
      ``L = origin * size + destination`` (diagonal legs have no chords);
    * ``poi`` / ``t_in`` / ``t_out`` — the flat chord arrays, ordered by
      leg and, within a leg, by ascending PoI index.

    Chords come from one :func:`~repro.geometry.coverage.leg_chords`
    pass over every leg, equal to the scalar
    :func:`~repro.geometry.coverage.chord_through_disc` bit for bit.
    """

    __slots__ = ("size", "counts", "offsets", "poi", "t_in", "t_out")

    def __init__(self, positions: Sequence[Point], radius: float) -> None:
        size = len(positions)
        origins, destinations = np.nonzero(~np.eye(size, dtype=bool))
        leg, poi, self.t_in, self.t_out = leg_chords(
            position_array(positions), radius, origins, destinations
        )
        flat = origins[leg] * size + destinations[leg]
        self.size = size
        self.counts = np.bincount(flat, minlength=size * size).astype(
            np.int64
        )
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)[:-1]))
        self.poi = poi.astype(np.int64)

    def leg(self, origin: int, destination: int) -> List[tuple]:
        """Chords of one leg as ``(poi, t_in, t_out)`` tuples."""
        flat = origin * self.size + destination
        lo = int(self.offsets[flat])
        hi = lo + int(self.counts[flat])
        return list(
            zip(
                self.poi[lo:hi].tolist(),
                self.t_in[lo:hi].tolist(),
                self.t_out[lo:hi].tolist(),
            )
        )

    def __getstate__(self):
        """Slot dict; large chord arrays become shared-memory handles
        when a :func:`repro.exec.shm.transport_session` is active (the
        process backend's shm transport), and plain arrays otherwise —
        ordinary pickling is byte-for-byte unchanged."""
        from repro.exec.shm import share_array

        return {
            slot: share_array(getattr(self, slot))
            for slot in self.__slots__
        }

    def __setstate__(self, state):
        from repro.exec.shm import resolve_shared

        for slot, value in state.items():
            setattr(self, slot, resolve_shared(value))


@dataclass(frozen=True)
class PoI:
    """A point of interest: a location plus its target coverage share."""

    index: int
    position: Point
    target_share: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")
        if not 0.0 <= self.target_share <= 1.0:
            raise ValueError(
                f"target_share must lie in [0, 1], got {self.target_share}"
            )


class Topology:
    """Physical layout of the PoIs and the sensor's kinematic parameters.

    Parameters
    ----------
    positions:
        PoI locations (meters).  At least two, pairwise more than
        ``2 * sensing_radius`` apart (the paper's disjointness requirement).
    target_shares:
        The prescribed coverage-time allocation ``Phi`` (sums to one).
    sensing_radius:
        Sensor coverage range ``r`` (meters).
    speed:
        Constant travel speed (meters/second).
    pause_times:
        Per-PoI pause time ``P_k`` on arrival (seconds); a scalar is
        broadcast to all PoIs.
    name:
        Optional human-readable label used in reports.
    adjacency:
        Optional boolean ``M x M`` mask of feasible transitions (sparse
        road networks, city grids).  The diagonal is always forced
        feasible (a sensor may pause in place), and the mask must be
        strongly connected so a support-respecting chain can be ergodic.
        ``None`` (the default, and the paper's setting) means every leg
        is feasible.

    The derived matrices (Section III-A) are exposed as read-only
    properties:

    * :attr:`travel_times` — ``T_jk`` including the destination pause.
    * :attr:`passby` — the tensor ``T[j, k, i] = T_{jk,i}`` (dense
      ``O(M^3)``; built lazily so large sparse topologies never pay for
      it — they use :meth:`passby_entries` instead).
    * :attr:`distances` — raw pairwise distances ``d_jk``.
    """

    def __init__(
        self,
        positions: Sequence[PointLike],
        target_shares: Sequence[float],
        sensing_radius: float,
        speed: float = DEFAULT_SPEED,
        pause_times=DEFAULT_PAUSE,
        name: Optional[str] = None,
        adjacency: Optional[np.ndarray] = None,
    ) -> None:
        points = [as_point(p) for p in positions]
        if len(points) < 2:
            raise ValueError(
                f"a topology needs at least 2 PoIs, got {len(points)}"
            )
        shares = check_distribution(
            "target_shares", np.asarray(target_shares, dtype=float),
            size=len(points),
        )
        self._sensing_radius = check_positive("sensing_radius", sensing_radius)
        self._speed = check_positive("speed", speed)
        pause_array = np.broadcast_to(
            np.asarray(pause_times, dtype=float), (len(points),)
        ).copy()
        if np.any(pause_array <= 0):
            raise ValueError("pause_times must all be > 0")
        check_disjoint_pois(points, self._sensing_radius)

        self._pois: List[PoI] = [
            PoI(index=i, position=p, target_share=float(s))
            for i, (p, s) in enumerate(zip(points, shares))
        ]
        self._pause_times = pause_array
        self._name = name or f"topology-{len(points)}poi"
        self._distances = travel_distance_matrix(points)
        self._travel_times = travel_time_matrix(
            points, self._speed, pause_array
        )
        self._adjacency = self._check_adjacency(adjacency, len(points))
        # The dense O(M^3) pass-by tensor is built lazily (see passby).
        self._passby_cache: Optional[np.ndarray] = None
        self._entries_cache = None

    @staticmethod
    def _check_adjacency(adjacency, count: int) -> Optional[np.ndarray]:
        """Validate the feasible-transition mask (or pass ``None`` through).

        Forces the diagonal feasible and requires strong connectivity —
        an unreachable (or non-returning) PoI makes every
        support-respecting chain non-ergodic, which downstream solvers
        would only discover as a confusing singular system.
        """
        if adjacency is None:
            return None
        adjacency = np.array(adjacency, dtype=bool)
        if adjacency.shape != (count, count):
            raise ValueError(
                f"adjacency must have shape {(count, count)}, "
                f"got {adjacency.shape}"
            )
        np.fill_diagonal(adjacency, True)
        for mask in (adjacency, adjacency.T):
            reachable = np.zeros(count, dtype=bool)
            reachable[0] = True
            frontier = reachable
            while frontier.any():
                expanded = mask[frontier].any(axis=0) & ~reachable
                reachable |= expanded
                frontier = expanded
            if not reachable.all():
                missing = np.nonzero(~reachable)[0]
                raise ValueError(
                    "adjacency is not strongly connected: PoIs "
                    f"{missing[:5].tolist()} are unreachable from PoI 0 "
                    "(or cannot return); no support-respecting chain can "
                    "be ergodic"
                )
        return adjacency

    # ----------------------------------------------------------------- #
    # Basic attributes
    # ----------------------------------------------------------------- #

    @property
    def name(self) -> str:
        """Human-readable label."""
        return self._name

    @property
    def size(self) -> int:
        """Number of PoIs ``M``."""
        return len(self._pois)

    def __len__(self) -> int:
        return self.size

    @property
    def pois(self) -> List[PoI]:
        """The PoIs, in index order."""
        return list(self._pois)

    @property
    def positions(self) -> List[Point]:
        """PoI locations, in index order."""
        return [poi.position for poi in self._pois]

    @property
    def target_shares(self) -> np.ndarray:
        """The prescribed allocation ``Phi`` (copy)."""
        return np.array([poi.target_share for poi in self._pois])

    @property
    def sensing_radius(self) -> float:
        """Sensing range ``r`` in meters."""
        return self._sensing_radius

    @property
    def speed(self) -> float:
        """Travel speed in meters/second."""
        return self._speed

    @property
    def pause_times(self) -> np.ndarray:
        """Per-PoI pause times (copy)."""
        return self._pause_times.copy()

    # ----------------------------------------------------------------- #
    # Derived timing quantities
    # ----------------------------------------------------------------- #

    @property
    def distances(self) -> np.ndarray:
        """Pairwise straight-line distances ``d_jk`` (copy)."""
        return self._distances.copy()

    @property
    def travel_times(self) -> np.ndarray:
        """Transition durations ``T_jk = d_jk / speed + P_k`` (copy)."""
        return self._travel_times.copy()

    @property
    def adjacency(self) -> Optional[np.ndarray]:
        """Feasible-transition mask (copy), or ``None`` when unrestricted."""
        return None if self._adjacency is None else self._adjacency.copy()

    @property
    def passby(self) -> np.ndarray:
        """Coverage tensor ``T[j, k, i] = T_{jk,i}`` (copy).

        Dense ``O(M^3)`` — built lazily on first access and cached, so
        topologies that only ever use the sparse entry list
        (:meth:`passby_entries`) never allocate it.
        """
        if self._passby_cache is None:
            self._passby_cache = passby_tensor(
                self.positions, self._sensing_radius, self._speed,
                self._pause_times,
            )
        return self._passby_cache.copy()

    def passby_entries(self):
        """Nonzero pass-by entries ``(j, k, i, T_jki)`` on supported legs.

        The compact pass-by representation for sparse topologies (see
        :func:`~repro.topology.timing.support_passby_entries`); requires
        an ``adjacency`` mask.  Cached after the first call.
        """
        if self._adjacency is None:
            raise ValueError(
                "passby_entries requires a topology with an adjacency "
                "mask; dense topologies use the passby tensor"
            )
        if self._entries_cache is None:
            self._entries_cache = support_passby_entries(
                self.positions, self._sensing_radius, self._speed,
                self._pause_times, self._adjacency,
            )
        return self._entries_cache

    def chord_table(self) -> LegCoverageTable:
        """Per-leg chord fractions (see :class:`LegCoverageTable`).

        Built lazily on first use and cached on the instance, so repeated
        simulations of one topology (and fan-out workers receiving a
        pickled copy of an already-warmed topology) build it once.
        """
        table = getattr(self, "_chord_table", None)
        if table is None:
            table = LegCoverageTable(
                self.positions, self._sensing_radius
            )
            self._chord_table = table
        return table

    def intermediate_pois(self, origin: int, destination: int) -> List[int]:
        """PoIs covered mid-travel on the ``origin -> destination`` leg.

        These are indices ``i`` distinct from both endpoints with
        ``T_{jk,i} > 0`` — the geographically induced side-effect coverage
        the paper emphasizes.
        """
        if origin == destination:
            return []
        _, poi, _, _ = leg_chords(
            position_array(self.positions), self._sensing_radius,
            [origin], [destination],
        )
        return [i for i in poi.tolist() if i not in (origin, destination)]

    def __getstate__(self):
        """Instance dict; the derived tensors (travel times, distances,
        adjacency, cached pass-by/entries) become shared-memory handles
        when a :func:`repro.exec.shm.transport_session` is active.
        Without a session this returns the plain dict, so serial/thread
        pickling and :mod:`copy` semantics are unchanged."""
        from repro.exec.shm import active_session, share_array

        if active_session() is None:
            return self.__dict__
        state = {}
        for key, value in self.__dict__.items():
            if isinstance(value, tuple):
                value = tuple(share_array(v) for v in value)
            else:
                value = share_array(value)
            state[key] = value
        return state

    def __setstate__(self, state):
        from repro.exec.shm import TensorHandle, resolve_shared

        restored = {}
        for key, value in state.items():
            if isinstance(value, tuple) and any(
                isinstance(v, TensorHandle) for v in value
            ):
                value = tuple(resolve_shared(v) for v in value)
            else:
                value = resolve_shared(value)
            restored[key] = value
        self.__dict__.update(restored)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(name={self._name!r}, size={self.size}, "
            f"r={self._sensing_radius}, speed={self._speed})"
        )
