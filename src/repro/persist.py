"""Serialization of topologies, matrices, and optimization results.

JSON in, JSON out — the interchange format of the CLI and of anyone
scripting batch experiments.  Matrices are stored as nested lists; all
floats survive a round trip exactly (JSON numbers are doubles).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Union

import numpy as np

from repro.core.result import OptimizationResult
from repro.topology.model import Topology

PathLike = Union[str, pathlib.Path]

#: Schema tag written into every file for forward compatibility.
TOPOLOGY_SCHEMA = "repro/topology/v1"
MATRIX_SCHEMA = "repro/matrix/v1"
RESULT_SCHEMA = "repro/result/v1"

#: Service-layer schema tags (:mod:`repro.service`): the canonical job
#: request and the content-addressed store record wrapping a completed
#: job's result payload.  The request schema is part of every request
#: digest; v2 dropped the simulator-selection and line-search-reuse
#: option fields, so v1 digests are never produced again.
SERVICE_REQUEST_SCHEMA = "repro/service-request/v2"
SERVICE_RESULT_SCHEMA = "repro/service-result/v1"

#: Digest algorithm used for content addressing throughout the repo
#: (shared-memory transport dedup today, result caching tomorrow).
DIGEST_ALGORITHM = "sha256"


def array_digest(array: np.ndarray) -> str:
    """Content digest of an ndarray: dtype, shape, layout, and bytes.

    Two arrays share a digest iff they are value- *and* layout-identical,
    which is the equivalence the shared-memory transport needs: a
    reattached segment must reproduce the source array bit for bit.
    Fortran-ordered arrays hash their transpose's bytes (tagged ``F``)
    so the digest never has to materialize a contiguous copy.
    """
    if array.flags.c_contiguous:
        buffer, order = array, "C"
    elif array.flags.f_contiguous:
        buffer, order = array.T, "F"
    else:
        buffer, order = np.ascontiguousarray(array), "C"
    hasher = hashlib.new(DIGEST_ALGORITHM)
    header = f"{array.dtype.str}|{array.shape}|{order}|".encode()
    hasher.update(header)
    hasher.update(buffer.tobytes() if buffer.dtype.hasobject else buffer)
    return hasher.hexdigest()


def payload_digest(data: bytes) -> str:
    """Content digest of an opaque byte payload (e.g. a pickled object)."""
    return hashlib.new(DIGEST_ALGORITHM, data).hexdigest()


def canonical_json(value) -> str:
    """The canonical JSON encoding used for content addressing.

    Sorted keys and no whitespace, so two value-equal structures encode
    to identical bytes; floats use ``repr`` (via ``json``), which
    round-trips doubles exactly.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def json_digest(value) -> str:
    """Content digest of a JSON-serializable structure.

    The digest of :func:`canonical_json`'s bytes — the cell identity
    used by the sweep harness to deduplicate scenario cells and resume
    interrupted sweeps (:mod:`repro.sweep`).
    """
    return payload_digest(canonical_json(value).encode("utf-8"))


def topology_to_dict(topology: Topology) -> dict:
    """Serializable description of a topology.

    A sparse-support topology's adjacency mask is stored as the list of
    feasible off-diagonal legs ``[j, k]`` (the diagonal is always
    feasible) — compact for the street-grid families, whose masks have
    ``O(M)`` true entries out of ``M^2``.  Unrestricted topologies omit
    the key entirely, keeping their files byte-identical to the v1
    format readers already accept.
    """
    payload = {
        "schema": TOPOLOGY_SCHEMA,
        "name": topology.name,
        "positions": [p.as_tuple() for p in topology.positions],
        "target_shares": topology.target_shares.tolist(),
        "sensing_radius": topology.sensing_radius,
        "speed": topology.speed,
        "pause_times": topology.pause_times.tolist(),
    }
    adjacency = topology.adjacency
    if adjacency is not None:
        np.fill_diagonal(adjacency, False)
        payload["adjacency_legs"] = np.argwhere(adjacency).tolist()
    return payload


def topology_from_dict(data: dict) -> Topology:
    """Rebuild a :class:`Topology`; derived matrices are recomputed."""
    schema = data.get("schema")
    if schema != TOPOLOGY_SCHEMA:
        raise ValueError(
            f"expected schema {TOPOLOGY_SCHEMA!r}, got {schema!r}"
        )
    adjacency = None
    legs = data.get("adjacency_legs")
    if legs is not None:
        count = len(data["positions"])
        adjacency = np.zeros((count, count), dtype=bool)
        for j, k in legs:
            adjacency[int(j), int(k)] = True
        np.fill_diagonal(adjacency, True)
    return Topology(
        positions=[tuple(p) for p in data["positions"]],
        target_shares=data["target_shares"],
        sensing_radius=data["sensing_radius"],
        speed=data.get("speed", 10.0),
        pause_times=data.get("pause_times", 10.0),
        name=data.get("name"),
        adjacency=adjacency,
    )


def save_topology(topology: Topology, path: PathLike) -> None:
    """Write a topology as JSON."""
    pathlib.Path(path).write_text(
        json.dumps(topology_to_dict(topology), indent=2) + "\n"
    )


def load_topology(path: PathLike) -> Topology:
    """Read a topology written by :func:`save_topology`."""
    return topology_from_dict(json.loads(pathlib.Path(path).read_text()))


def save_matrix(matrix: np.ndarray, path: PathLike) -> None:
    """Write a transition matrix as JSON."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    payload = {"schema": MATRIX_SCHEMA, "matrix": matrix.tolist()}
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_matrix(path: PathLike) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`."""
    data = json.loads(pathlib.Path(path).read_text())
    schema = data.get("schema")
    if schema != MATRIX_SCHEMA:
        raise ValueError(
            f"expected schema {MATRIX_SCHEMA!r}, got {schema!r}"
        )
    matrix = np.asarray(data["matrix"], dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"stored matrix is not square: {matrix.shape}")
    return matrix


def result_to_dict(result: OptimizationResult) -> dict:
    """Serializable summary of an optimization result.

    The per-iteration history is reduced to its cost trace (the full
    record objects are session artifacts, not interchange data).
    """
    return {
        "schema": RESULT_SCHEMA,
        "u_eps": result.u_eps,
        "u": result.u,
        "delta_c": result.delta_c,
        "e_bar": result.e_bar,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "best_u_eps": result.best_u_eps,
        "matrix": np.asarray(result.matrix, dtype=float).tolist(),
        "best_matrix": np.asarray(
            result.best_matrix, dtype=float
        ).tolist(),
        "cost_trace": result.cost_trace().tolist(),
    }


def save_result(result: OptimizationResult, path: PathLike) -> None:
    """Write an optimization result summary as JSON."""
    pathlib.Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2) + "\n"
    )


def pack_service_record(
    request_digest: str, kind: str, payload: dict
) -> dict:
    """Wrap a completed job's ``payload`` in a verifiable store record.

    The record carries the request digest it is keyed under and a digest
    of its own canonical-JSON payload, so a reader can detect both a
    mis-filed record and a corrupted/truncated one without any other
    context (:func:`verify_service_record`).
    """
    return {
        "schema": SERVICE_RESULT_SCHEMA,
        "request": request_digest,
        "kind": kind,
        "payload": payload,
        "payload_digest": json_digest(payload),
    }


def verify_service_record(record, expected_digest=None) -> dict:
    """Validate a store record's integrity; return its payload.

    Raises :class:`ValueError` when the record is not a dict, carries
    the wrong schema tag, is keyed under a different request digest than
    ``expected_digest``, or its payload does not hash to the recorded
    ``payload_digest`` (bit rot, torn write, or tampering) — the store
    treats any of these as a cache miss and recomputes.
    """
    if not isinstance(record, dict):
        raise ValueError(
            f"service record must be a dict, got {type(record).__name__}"
        )
    schema = record.get("schema")
    if schema != SERVICE_RESULT_SCHEMA:
        raise ValueError(
            f"expected schema {SERVICE_RESULT_SCHEMA!r}, got {schema!r}"
        )
    if expected_digest is not None and (
        record.get("request") != expected_digest
    ):
        raise ValueError(
            f"record is keyed for request {record.get('request')!r}, "
            f"expected {expected_digest!r}"
        )
    payload = record.get("payload")
    recorded = record.get("payload_digest")
    actual = json_digest(payload)
    if recorded != actual:
        raise ValueError(
            f"payload digest mismatch: recorded {recorded!r}, actual "
            f"{actual!r}"
        )
    return payload
