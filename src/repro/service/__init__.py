"""Coverage-as-a-service: async job runner + content-addressed cache.

The service layer turns the repo's optimizers and simulators into
idempotent jobs: a request is canonical JSON (topology digest, weights,
plugin terms, method, fully expanded options, seed — plus matrix digests
for simulation kinds), its digest is the job's identity, and identical
work is never done twice — concurrent duplicates fan in to one
computation (:mod:`repro.service.queue`), completed results are served
from a verified LRU disk cache (:mod:`repro.service.store`), and past
sweep shards bulk-import to pre-warm it.  Long jobs checkpoint after
accepted iterations and resume bit-identically
(:mod:`repro.service.runner`).  See ``docs/service.md``.
"""

from repro.service.queue import FanInQueue, ServiceStats
from repro.service.requests import (
    KINDS,
    JobRequest,
    execute_request,
    optimize_request,
    request_digest,
    request_from_cell,
    request_from_dict,
    request_identity,
    request_to_dict,
    simulation_request,
    team_request,
)
from repro.service.runner import (
    CoverageService,
    JobCheckpoint,
    serve_spool,
)
from repro.service.store import ResultStore

__all__ = [
    "KINDS",
    "JobRequest",
    "optimize_request",
    "simulation_request",
    "team_request",
    "request_from_cell",
    "request_identity",
    "request_digest",
    "request_to_dict",
    "request_from_dict",
    "execute_request",
    "ResultStore",
    "FanInQueue",
    "ServiceStats",
    "CoverageService",
    "JobCheckpoint",
    "serve_spool",
]
