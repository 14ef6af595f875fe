#!/usr/bin/env python
"""Validate the layout and integrity of one or more service stores.

For each given store root (see :mod:`repro.service.store`), every
record under ``objects/`` must:

* live at ``objects/<aa>/<digest>.json`` with ``aa == digest[:2]`` and
  a 64-hex-digit digest filename,
* carry the ``repro/service-result/v1`` schema tag and verify against
  its own ``payload_digest`` *and* its filename digest
  (:func:`repro.persist.verify_service_record` — the same check every
  cache read performs),
* name a known job kind and carry a ``result`` mapping (``optimize``
  payloads must also carry their ``matrix``).

``checkpoints/*.json`` files, when present, must parse as
``repro/walk-snapshot/v2`` snapshots — they are the resume state of
in-flight jobs, and a malformed or older-schema one silently degrades
resume to a restart.  Stray ``*.tmp`` files are fine: they are the
footprint of a killed atomic write and are never read.  Run from anywhere::

    python tools/check_service_store.py STORE_DIR [STORE_DIR ...]

Exit status is nonzero if any record violates the contract, with one
line per offender.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.core.perturbed import WALK_SNAPSHOT_SCHEMA  # noqa: E402
from repro.persist import verify_service_record  # noqa: E402
from repro.service.requests import KINDS  # noqa: E402
from repro.service.store import OBJECTS_DIR  # noqa: E402

DIGEST = re.compile(r"^[0-9a-f]{64}$")


def check_object(path: Path) -> list:
    """Problems with one stored record (empty list when valid)."""
    problems = []
    digest = path.stem
    if not DIGEST.match(digest):
        return [f"{path}: filename is not a 64-hex digest"]
    if path.parent.name != digest[:2]:
        problems.append(
            f"{path}: filed under shard {path.parent.name!r}, "
            f"expected {digest[:2]!r}"
        )
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"{path}: unreadable: {exc}")
        return problems
    try:
        payload = verify_service_record(record, expected_digest=digest)
    except ValueError as exc:
        problems.append(f"{path}: {exc}")
        return problems
    kind = record.get("kind")
    if kind not in KINDS:
        problems.append(f"{path}: unknown kind {kind!r}")
        return problems
    if not isinstance(payload.get("result"), dict):
        problems.append(f"{path}: payload missing result mapping")
    if kind == "optimize" and not isinstance(
        payload.get("matrix"), list
    ):
        problems.append(f"{path}: optimize payload missing matrix")
    return problems


def check_checkpoint(path: Path) -> list:
    """Problems with one in-flight job checkpoint."""
    if not DIGEST.match(path.stem):
        return [f"{path}: checkpoint name is not a request digest"]
    try:
        snapshot = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable: {exc}"]
    schema = snapshot.get("schema") if isinstance(snapshot, dict) else None
    if schema != WALK_SNAPSHOT_SCHEMA:
        return [
            f"{path}: snapshot schema {schema!r} != "
            f"{WALK_SNAPSHOT_SCHEMA!r}"
        ]
    return []


def check_store(root: Path) -> list:
    """Problems across one store directory."""
    objects = root / OBJECTS_DIR
    if not objects.is_dir():
        return [f"{root}: no {OBJECTS_DIR}/ directory (not a store?)"]
    problems = []
    count = 0
    for shard in sorted(objects.iterdir()):
        if not shard.is_dir():
            problems.append(f"{shard}: stray file in {OBJECTS_DIR}/")
            continue
        for entry in sorted(shard.iterdir()):
            if entry.suffix == ".tmp":
                continue  # killed atomic write; never read
            count += 1
            problems.extend(check_object(entry))
    checkpoints = root / "checkpoints"
    if checkpoints.is_dir():
        for entry in sorted(checkpoints.glob("*.json")):
            problems.extend(check_checkpoint(entry))
    if count == 0:
        problems.append(f"{root}: store holds no records")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        print(
            "usage: check_service_store.py STORE_DIR [STORE_DIR ...]",
            file=sys.stderr,
        )
        return 2
    problems = []
    for name in argv:
        problems.extend(check_store(Path(name)))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} store violation(s)", file=sys.stderr)
        return 1
    print("service store OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
