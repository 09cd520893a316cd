"""repro.service — the simulation service daemon.

A stdlib-only HTTP/JSON server (``http.server`` + threads, no external
dependencies) fronting :mod:`repro.api` for many concurrent clients:
``python -m repro serve --port N``.  What a long-running process buys
over per-invocation CLI calls:

* **warm worker peers** (one shared
  :class:`repro.experiments.distributed.DistributedScheduler`) that
  amortize process spawn, interpreter imports and functional-trace
  loading across requests, with the fault-tolerant retry / quarantine /
  node-loss semantics intact;
* **request deduplication**: identical in-flight requests coalesce onto
  one computation (keyed by the same content-hash identity as the disk
  cache), so a thundering herd of equal grids costs one grid;
* **async jobs** for the long-running endpoints (``grid`` / ``figure`` /
  ``headline``): submit, poll ``GET /jobs/<id>``, or follow the NDJSON
  progress stream at ``GET /jobs/<id>/events``;
* **backpressure**: a bounded job queue and a sync-concurrency limit —
  saturation is a ``503`` + ``Retry-After``, never an unbounded pile-up —
  plus a per-request timeout backed by the fabric's per-task deadline.

Every response body is a v2 envelope (:mod:`repro.schemas`):
``{"schema", "ok", "error", ...payload}``, with failures carried as
``repro.error/v1`` objects.  See ``docs/SERVICE.md`` for the endpoint
reference and wire examples.

Module map: :mod:`~repro.service.wire` (request parsing + dedup keys),
:mod:`~repro.service.dedup` (in-flight coalescing),
:mod:`~repro.service.jobs` (job table + executors),
:mod:`~repro.service.server` (HTTP front + ``ServiceConfig``).
"""

from __future__ import annotations

from .dedup import InflightRegistry
from .jobs import Job, JobManager, JobQueueFull
from .server import ServiceConfig, SimulationService, serve
from .wire import WireError, request_key

__all__ = [
    "InflightRegistry",
    "Job",
    "JobManager",
    "JobQueueFull",
    "ServiceConfig",
    "SimulationService",
    "WireError",
    "request_key",
    "serve",
]
