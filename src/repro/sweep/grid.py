"""Declarative scenario grids and their expansion into sweep cells.

A sweep is described by a :class:`SweepGrid` — topology family x size x
Phi profile x :class:`~repro.core.cost.CostWeights` x optimizer method
x seed — loaded from JSON (:func:`load_grid`) or built in code.
:meth:`SweepGrid.expand` enumerates the cells in a fixed nested order;
each :class:`SweepCell` is a complete, self-contained description of
one optimization run, and :func:`cell_digest` content-addresses it (via
:func:`repro.persist.json_digest`), which is what makes sweeps
deduplicable and resumable: a cell's digest never changes unless the
work it describes changes.

:func:`run_cell` is the *single* execution path for a cell — the sweep
driver's workers call it, and so does anyone re-running a cell
standalone — so a streamed sweep record is bit-identical to running the
cell by hand through :func:`repro.optimize` (asserted in
``tests/sweep/test_driver.py``).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.api import OPTIMIZER_REGISTRY
from repro.core.cost import LINALG_MODES
from repro.core.registry import normalize_extra_terms
from repro.persist import json_digest
from repro.topology.library import (
    PAPER_TOPOLOGY_IDS,
    SCALABLE_FAMILIES,
    paper_topology,
    scalable_topology,
)
from repro.topology.model import Topology

#: Schema tags for the grid file and the streamed cell records.
GRID_SCHEMA = "repro/sweep-grid/v1"
CELL_SCHEMA = "repro/sweep-cell/v1"

#: Topology families a grid may name: the paper reconstructions (whose
#: "size" is the paper id) plus the scalable sparse-support families.
FAMILIES = ("paper",) + SCALABLE_FAMILIES

#: Phi (target-share) profile kinds.  ``"paper"`` is the only profile
#: of the paper topologies (their shares are fixed by the paper);
#: scalable families take ``"uniform"`` or ``"dirichlet"``.
PHI_KINDS = ("paper", "uniform", "dirichlet")


@dataclass(frozen=True)
class SweepCell:
    """One fully specified scenario: topology, weights, method, seed.

    Frozen and JSON-plain on purpose — :func:`cell_digest` hashes the
    canonical JSON of :func:`cell_to_dict`, so every field is part of
    the cell's identity.
    """

    family: str
    size: int                 # PoI count; paper id for family="paper"
    phi: str                  # Phi profile kind (see PHI_KINDS)
    phi_alpha: float          # Dirichlet concentration (dirichlet only)
    phi_seed: int             # topology/allocation seed
    alpha: float              # coverage weight
    beta: float               # exposure weight
    epsilon: float            # barrier band width
    method: str               # OPTIMIZER_REGISTRY key
    seed: int                 # optimizer seed
    iterations: int
    starts: int               # multistart portfolio size (else ignored)
    trisection_rounds: int
    linalg: str
    #: Plugin cost terms, in normalize_extra_terms' canonical triple
    #: form.  Empty for the paper objective — and then omitted from
    #: cell_to_dict, so compositions change a cell's digest but bare
    #: cells keep their historical identity (old sweep directories
    #: resume cleanly).
    terms: Tuple = ()


def cell_to_dict(cell: SweepCell) -> dict:
    """Plain-JSON form of a cell (the ``"cell"`` record field)."""
    payload = asdict(cell)
    terms = payload.pop("terms", ())
    if terms:
        payload["terms"] = [
            [name, weight, dict(params)]
            for name, weight, params in terms
        ]
    return payload


def cell_from_dict(data: dict) -> SweepCell:
    """Inverse of :func:`cell_to_dict`; unknown keys raise.

    ``terms`` is optional — records written before the cost-term
    registry existed simply have no plugin terms.
    """
    data = dict(data)
    terms = data.pop("terms", ())
    known = {f for f in SweepCell.__dataclass_fields__} - {"terms"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown cell fields: {', '.join(unknown)}")
    missing = sorted(known - set(data))
    if missing:
        raise ValueError(f"missing cell fields: {', '.join(missing)}")
    return SweepCell(terms=normalize_extra_terms(terms), **data)


def cell_digest(cell: SweepCell) -> str:
    """Content digest of a cell — the sweep's dedup/resume identity."""
    return json_digest(cell_to_dict(cell))


def topology_key(cell: SweepCell) -> Tuple:
    """The subset of a cell's identity that determines its topology.

    Cells sharing a key share (value-identical) topology tensors; the
    driver orders the shard queue by this key so consecutive tasks hit
    the broadcast-once cache instead of re-shipping the tensors.
    """
    return (cell.family, cell.size, cell.phi, cell.phi_alpha,
            cell.phi_seed)


def topology_label(cell: SweepCell) -> str:
    """Human-readable family label used for per-family aggregation."""
    if cell.family == "paper":
        return f"paper-{cell.size}"
    label = f"{cell.family}-{cell.size}/{cell.phi}"
    if cell.phi == "dirichlet":
        label += f"(a={cell.phi_alpha:g},s={cell.phi_seed})"
    return label


def build_topology(cell: SweepCell) -> Topology:
    """Construct the cell's topology (deterministic per cell)."""
    if cell.family == "paper":
        return paper_topology(cell.size)
    dirichlet = cell.phi_alpha if cell.phi == "dirichlet" else None
    return scalable_topology(
        cell.family, cell.size, seed=cell.phi_seed,
        dirichlet_alpha=dirichlet,
    )


@dataclass(frozen=True)
class SweepGrid:
    """A declarative scenario grid; ``expand`` enumerates its cells.

    ``topologies`` entries are mappings with ``family``, ``sizes``, and
    (scalable families only) a ``phi`` list of profile mappings
    (``{"kind": "uniform"}`` or ``{"kind": "dirichlet", "alpha": 2.0,
    "seed": 7}``).  ``weights`` entries carry ``alpha``/``beta`` and an
    optional ``epsilon``.  Expansion order is fixed — topologies,
    sizes, phi, weights, methods, seeds — so a grid always enumerates
    the same cells in the same order.
    """

    topologies: Tuple[dict, ...]
    weights: Tuple[dict, ...]
    methods: Tuple[str, ...] = ("perturbed",)
    seeds: Tuple[int, ...] = (0,)
    iterations: int = 100
    starts: int = 1
    trisection_rounds: int = 20
    linalg: str = "auto"
    include_matrix: bool = False
    #: Plugin cost terms applied to every cell, in any form
    #: :func:`~repro.core.registry.normalize_extra_terms` accepts
    #: (canonicalized and validated at construction).
    terms: Tuple = ()

    def __post_init__(self) -> None:
        # Canonicalize + validate the term composition up front: a bad
        # term name fails at grid load, not on a shard worker mid-sweep.
        object.__setattr__(
            self, "terms", normalize_extra_terms(self.terms)
        )
        if not self.topologies:
            raise ValueError("grid needs at least one topologies entry")
        if not self.weights:
            raise ValueError("grid needs at least one weights entry")
        if not self.methods:
            raise ValueError("grid needs at least one method")
        if not self.seeds:
            raise ValueError("grid needs at least one seed")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.linalg not in LINALG_MODES:
            raise ValueError(
                f"unknown linalg {self.linalg!r}; valid: {LINALG_MODES}"
            )
        for method in self.methods:
            if method not in OPTIMIZER_REGISTRY:
                known = ", ".join(sorted(OPTIMIZER_REGISTRY))
                raise ValueError(
                    f"unknown method {method!r}; available: {known}"
                )
        for entry in self.topologies:
            self._check_topology_entry(entry)
        for entry in self.weights:
            unknown = sorted(
                set(entry) - {"alpha", "beta", "epsilon"}
            )
            if unknown:
                raise ValueError(
                    f"unknown weights keys: {', '.join(unknown)}"
                )
            if "alpha" not in entry or "beta" not in entry:
                raise ValueError(
                    "every weights entry needs alpha and beta"
                )

    @staticmethod
    def _check_topology_entry(entry: dict) -> None:
        unknown = sorted(set(entry) - {"family", "sizes", "phi"})
        if unknown:
            raise ValueError(
                f"unknown topologies keys: {', '.join(unknown)}"
            )
        family = entry.get("family")
        if family not in FAMILIES:
            raise ValueError(
                f"unknown family {family!r}; valid: {FAMILIES}"
            )
        sizes = entry.get("sizes")
        if not sizes:
            raise ValueError(f"family {family!r} needs a sizes list")
        if family == "paper":
            bad = [s for s in sizes if s not in PAPER_TOPOLOGY_IDS]
            if bad:
                raise ValueError(
                    f"paper sizes are topology ids {PAPER_TOPOLOGY_IDS},"
                    f" got {bad}"
                )
            if entry.get("phi"):
                raise ValueError(
                    "paper topologies have fixed target shares; "
                    "omit the phi list"
                )
        for profile in entry.get("phi") or ():
            kind = profile.get("kind")
            if kind not in ("uniform", "dirichlet"):
                raise ValueError(
                    f"unknown phi kind {kind!r}; valid: uniform, "
                    "dirichlet"
                )
            unknown = sorted(set(profile) - {"kind", "alpha", "seed"})
            if unknown:
                raise ValueError(
                    f"unknown phi keys: {', '.join(unknown)}"
                )
            if kind == "dirichlet" and "alpha" not in profile:
                raise ValueError("dirichlet phi profiles need alpha")

    def expand(self) -> List[SweepCell]:
        """Enumerate every cell of the grid, in the fixed nested order.

        The list may contain value-identical cells when axes overlap
        (e.g. the same size listed twice); the driver deduplicates by
        digest before running.
        """
        cells: List[SweepCell] = []
        for entry in self.topologies:
            family = entry["family"]
            if family == "paper":
                profiles: Sequence[dict] = ({"kind": "paper"},)
            else:
                profiles = tuple(entry.get("phi") or ()) or (
                    {"kind": "uniform"},
                )
            for size in entry["sizes"]:
                for profile in profiles:
                    kind = profile["kind"]
                    phi_alpha = float(profile.get("alpha", 0.0))
                    phi_seed = int(profile.get("seed", 0))
                    for weights in self.weights:
                        for method in self.methods:
                            for seed in self.seeds:
                                cells.append(SweepCell(
                                    family=family,
                                    size=int(size),
                                    phi=kind,
                                    phi_alpha=phi_alpha,
                                    phi_seed=phi_seed,
                                    alpha=float(weights["alpha"]),
                                    beta=float(weights["beta"]),
                                    epsilon=float(
                                        weights.get("epsilon", 1e-4)
                                    ),
                                    method=method,
                                    seed=int(seed),
                                    iterations=self.iterations,
                                    starts=self.starts,
                                    trisection_rounds=(
                                        self.trisection_rounds
                                    ),
                                    linalg=self.linalg,
                                    terms=self.terms,
                                ))
        return cells

    def to_dict(self) -> dict:
        payload = {
            "schema": GRID_SCHEMA,
            "topologies": [dict(e) for e in self.topologies],
            "weights": [dict(e) for e in self.weights],
            "methods": list(self.methods),
            "seeds": list(self.seeds),
            "iterations": self.iterations,
            "starts": self.starts,
            "trisection_rounds": self.trisection_rounds,
            "linalg": self.linalg,
            "include_matrix": self.include_matrix,
        }
        if self.terms:
            payload["terms"] = [
                [name, weight, dict(params)]
                for name, weight, params in self.terms
            ]
        return payload

    def with_linalg(self, linalg: str) -> "SweepGrid":
        """Copy of the grid with its linalg mode overridden (changes
        every cell digest — a different backend is different work)."""
        return replace(self, linalg=linalg)

    def with_terms(self, terms) -> "SweepGrid":
        """Copy of the grid with its plugin-term composition replaced.

        A non-empty composition changes every cell digest — optimizing
        a different objective is different work; passing the current
        composition leaves digests untouched."""
        return replace(self, terms=normalize_extra_terms(terms))


def grid_from_dict(data: dict) -> SweepGrid:
    """Build a :class:`SweepGrid` from its JSON form."""
    schema = data.get("schema")
    if schema != GRID_SCHEMA:
        raise ValueError(
            f"expected schema {GRID_SCHEMA!r}, got {schema!r}"
        )
    known = {
        "schema", "topologies", "weights", "methods", "seeds",
        "iterations", "starts", "trisection_rounds", "linalg",
        "include_matrix", "terms",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown grid keys: {', '.join(unknown)}")
    kwargs = {}
    for key in ("methods", "seeds"):
        if key in data:
            kwargs[key] = tuple(data[key])
    for key in ("iterations", "starts", "trisection_rounds"):
        if key in data:
            kwargs[key] = int(data[key])
    if "linalg" in data:
        kwargs["linalg"] = data["linalg"]
    if "include_matrix" in data:
        kwargs["include_matrix"] = bool(data["include_matrix"])
    if "terms" in data:
        kwargs["terms"] = tuple(
            tuple(entry) if isinstance(entry, list) else entry
            for entry in data["terms"]
        )
    return SweepGrid(
        topologies=tuple(data.get("topologies") or ()),
        weights=tuple(data.get("weights") or ()),
        **kwargs,
    )


def load_grid(path) -> SweepGrid:
    """Read a grid JSON file written by hand or :meth:`to_dict`."""
    return grid_from_dict(json.loads(pathlib.Path(path).read_text()))


def save_grid(grid: SweepGrid, path) -> None:
    """Write a grid as JSON (the inverse of :func:`load_grid`)."""
    pathlib.Path(path).write_text(
        json.dumps(grid.to_dict(), indent=2) + "\n"
    )


# --------------------------------------------------------------------- #
# Cell execution — the one code path shared by sweeps and standalone
# --------------------------------------------------------------------- #


def _cell_options(cell: SweepCell, spec) -> dict:
    fields = set(spec.options_class.__dataclass_fields__)
    options = {
        "max_iterations": cell.iterations,
        "record_history": False,
    }
    if "trisection_rounds" in fields:
        options["trisection_rounds"] = cell.trisection_rounds
    if "stall_limit" in fields:
        # One shared budget: never stop a run early (the sweep's cells
        # must be comparable across methods and weights).
        options["stall_limit"] = cell.iterations + 1
    return options


def run_cell(cell: SweepCell, topology: Optional[Topology] = None):
    """Execute one cell; returns ``(record, matrix)``.

    ``record`` is the JSON-plain streamed result (without the matrix —
    the driver embeds it when the grid asks); ``matrix`` is the best
    transition matrix as an ndarray (returned separately so process
    workers ship it through the shared-memory result path).

    The cell runs as its service request
    (:func:`~repro.service.requests.request_from_cell`) through the
    service's optimize body, so the record's ``"result"`` block is the
    service payload's.  ``topology`` may be passed to reuse an
    already-built instance — construction is deterministic, so results
    are bit-identical either way (the driver shares one instance per
    topology key to hit the broadcast cache).
    """
    import numpy as np

    from repro.service.requests import (
        optimize_result_payload,
        request_from_cell,
        run_optimize_request,
    )

    result = run_optimize_request(request_from_cell(cell, topology))
    record = {
        "schema": CELL_SCHEMA,
        "digest": cell_digest(cell),
        "cell": cell_to_dict(cell),
        "result": optimize_result_payload(result),
    }
    return record, np.asarray(result.best_matrix, dtype=float)
