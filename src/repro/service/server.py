"""The HTTP front: routing, admission control, and the daemon entry point.

Stdlib only — :class:`http.server.ThreadingHTTPServer` with one thread
per connection; the simulation work itself runs on the worker peers of
one shared :class:`~repro.experiments.distributed.DistributedScheduler`,
so a poisoned request (``REPRO_FAULTS`` crash, wedged simulation) is
contained by the fabric's retry/quarantine machinery and the daemon
keeps serving.

Endpoints (see ``docs/SERVICE.md`` for wire examples):

====================  ======  ====================================================
``/status``           GET     ``repro.service.status/v1`` — uptime, jobs, pool
``/metrics``          GET     ``repro.service.metrics/v1`` — counters + p50/p99
``/run``              POST    synchronous single point -> ``repro.run/v1``
``/trace``            POST    synchronous instrumented run -> ``repro.trace/v1``
``/grid``             POST    async job -> ``202`` ``repro.service.job/v2``
``/figure``           POST    async job -> ``202`` ``repro.service.job/v2``
``/headline``         POST    async job -> ``202`` ``repro.service.job/v2``
``/jobs/<id>``        GET     poll one job -> ``repro.service.job/v2``
``/jobs/<id>/events`` GET     NDJSON progress stream (``repro.service.event/v1``;
                              ``?results=1`` includes ``point.result`` payloads)
``/jobs/<id>``        DELETE  cancel a queued/running job -> ``repro.service.job/v2``
====================  ======  ====================================================

Connections are **HTTP/1.1 keep-alive**: every JSON response carries
``Content-Length``, so one client connection serves many requests (the
latency win is measured by ``benchmarks/bench_service.py``).  The NDJSON
event stream is the one exception — unbounded, so it answers
``Connection: close``.

Every body is a v2 envelope; non-2xx bodies are ``repro.error/v1``,
including the framing errors (``400``, ``414``, ``431``, ``501``,
``505``) that ``http.server`` would answer with an HTML page.
Saturation answers ``503`` + ``Retry-After`` (sync concurrency past
``sync_limit``, job queue past ``queue_limit``) — the header value comes
from the saturated layer itself, not a constant; a request that outlives
``request_timeout`` answers ``504`` with ``retriable: true``.
"""

from __future__ import annotations

import email.utils
import importlib
import json
import re
import sys
import threading
import time
import urllib.parse
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple, Union

from .. import api
from ..experiments import diskcache
from ..experiments.parallel import resolve_jobs
from ..observe import MetricsRegistry
from ..schemas import (
    SCHEMA_HEADLINE,
    SCHEMA_SERVICE_METRICS,
    SCHEMA_SERVICE_STATUS,
    error_envelope,
    schema_names,
    wrap_error,
)
from . import wire
from .dedup import InflightRegistry
from .jobs import Job, JobCancelled, JobManager, JobQueueFull


#: modules a route imports on first use beyond what this module loads:
#: the in-process ``/trace`` run and the Fig 1 / Fig 3 analyses behind
#: ``/figure``.  The service loads them before its first answer, so no
#: request pays an import.
_REQUEST_PATH = (
    "repro.pipeline.machine",
    "repro.workloads.spec95",
    "repro.analysis.stride_profile",
    "repro.analysis.vectorizability",
)


#: a response body: an envelope, or one already encoded by :func:`_encode`.
Payload = Union[Dict, bytes]


def _encode(payload: Dict) -> bytes:
    """The wire bytes of one JSON envelope."""
    return json.dumps(payload, sort_keys=True).encode()


# -- request and response framing -------------------------------------------

_PROTOCOL = "HTTP/1.1"
_SERVER = "repro-serve/1"

#: ``status -> b"HTTP/1.1 <code> <phrase>\r\nServer: ...\r\nDate: "``: the
#: part of a response head that only the status decides.
_HEADS = {
    status.value: (
        f"{_PROTOCOL} {status.value} {status.phrase}\r\n"
        f"Server: {_SERVER} {BaseHTTPRequestHandler.sys_version}\r\nDate: "
    ).encode("latin-1")
    for status in HTTPStatus
}

#: ``(second, Date value)`` of the last response; replaced whole, never
#: mutated, so a thread reads a matching pair without a lock.  It caches a
#: function of the clock alone, so every server in the process shares it.
_date = (-1, b"")


def _http_date() -> bytes:
    """The ``Date`` header value, formatted at most once per second."""
    global _date
    now = int(time.time())
    cached = _date
    if cached[0] != now:
        cached = _date = (now, email.utils.formatdate(now, usegmt=True).encode())
    return cached[1]


#: ``http.client``'s limits, which ``http.server`` applies to a request
#: head: a header line of at most 65 536 bytes, and at most 100 lines
#: counting the blank line that ends the head.
_MAX_LINE = 65_536
_MAX_HEADERS = 100

#: an RFC 9110 field name; a line led by whitespace (obs-fold) or with
#: whitespace before its colon does not match (RFC 9112 §5.1-5.2).
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


class _Headers(dict):
    """Request header fields keyed by lowercase name; :meth:`get` takes
    a name in any case, as ``email.message.Message.get`` did."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` request version, or None
    where ``http.server`` answers ``400 Bad request version``."""
    if not version.startswith("HTTP/"):
        return None
    numbers = version[5:].split(".")
    if len(numbers) != 2 or not all(
        n.isascii() and n.isdigit() and len(n) <= 10 for n in numbers
    ):
        return None
    return int(numbers[0]), int(numbers[1])


def _default_jobs() -> int:
    """Worker peers: ``$REPRO_JOBS``/CPU count, but never below 2.

    The floor matters: with one peer a crash-fault retry waits for its
    respawn, and a single slow request would serialize the whole daemon.
    ``REPRO_JOBS=0`` or negative is a usage error and raises
    ``ValueError`` — the same contract as every other consumer of the
    variable — not a silent reinterpretation as 2.
    """
    return max(2, resolve_jobs(None))


@dataclass
class ServiceConfig:
    """Everything ``python -m repro serve`` lets you turn."""

    host: str = "127.0.0.1"
    port: int = 8642
    #: worker peers of the shared scheduler (default: max(2, CPUs)).
    jobs: Optional[int] = None
    #: threads draining the async job queue.
    job_workers: int = 2
    #: bounded async admission: queued jobs past this answer 503.
    queue_limit: int = 16
    #: concurrent synchronous requests past this answer 503.
    sync_limit: int = 8
    #: per-request stall/wait bound in seconds (504 past it).
    request_timeout: float = 300.0
    #: retry budget forwarded to the fault-tolerant fabric (None = env/default).
    max_retries: Optional[int] = None
    #: completed jobs kept for polling before eviction.
    job_history: int = 256
    #: benchmarks whose functional traces workers preload at warm-up.
    warm_benchmarks: Tuple[str, ...] = field(default_factory=tuple)
    #: trace preload scale for warm-up.
    warm_scale: int = api.EXPERIMENT_SCALE


class SimulationService:
    """The daemon's brain: peers + dedup + jobs + metrics, HTTP-agnostic.

    Separated from the HTTP handler so tests can drive it directly and
    the wire layer stays a thin translation.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        for module in _REQUEST_PATH:
            importlib.import_module(module)
        self.started = time.time()
        self.scheduler = api.DistributedScheduler(
            self.config.jobs or _default_jobs()
        )
        self.metrics = MetricsRegistry()
        self.inflight = InflightRegistry()
        #: ``/run`` point -> the encoded body of its first ``200`` answer.
        self._answers: Dict[wire.GridPoint, bytes] = {}
        self._answer_hits = self.metrics.counter("service.answer_hits")
        self._sync_slots = threading.BoundedSemaphore(self.config.sync_limit)
        self.jobs = JobManager(
            executors={
                "grid": self._execute_grid,
                "figure": self._execute_figure,
                "headline": self._execute_headline,
            },
            queue_limit=self.config.queue_limit,
            workers=self.config.job_workers,
            history=self.config.job_history,
            notify=self._job_changed,
        )

    # -- lifecycle ---------------------------------------------------------

    def warm(self) -> int:
        """Spawn the worker peers now; returns how many finished warming."""
        warmed = self.scheduler.warm(
            self.config.warm_benchmarks, scale=self.config.warm_scale
        )
        self.metrics.gauge("service.workers_warmed").set(warmed)
        return warmed

    def shutdown(self) -> None:
        self.jobs.shutdown()
        self.scheduler.close()

    # -- sync endpoints ----------------------------------------------------

    def run(self, body: Dict) -> Tuple[Payload, int]:
        """``POST /run``: one point, synchronously, on a worker peer.

        Routed through :func:`api.grid` (not :func:`api.simulate`) so the
        simulation runs in a peer *process*: a crash or hang is the
        fabric's problem — quarantined into an error envelope — never the
        daemon's.

        A point answered ``200`` before is answered again with the bytes
        of that first answer: the validated point is a canonical key
        (:func:`wire.parse_point`), so the simulation, its request key,
        coalescing and the encoding are all skipped, and the answer is
        byte-identical by construction.  Only ``200`` answers are kept;
        a failed point is recomputed on every request.
        """
        point = wire.parse_point(body)
        answer = self._answers.get(point)
        if answer is None:
            return self._coalesced(
                wire.request_key("run", [point]), lambda: self._run_once(point)
            )
        if not self._sync_slots.acquire(blocking=False):
            return self._saturated()
        self._sync_slots.release()
        self._answer_hits.inc()
        return answer, 200

    def trace(self, body: Dict) -> Tuple[Dict, int]:
        """``POST /trace``: instrumented run, in-process (events cannot
        cross the wire cheaply; tracing is bounded by scale)."""
        params, key = wire.parse_trace_request(body)

        def compute() -> Tuple[Dict, int]:
            point = params["point"]
            report = api.trace(
                point.name,
                width=point.width,
                ports=point.ports,
                mode=point.mode,
                scale=point.scale,
                block_on_scalar_operand=point.block_on_scalar_operand,
                events=params["events"],
                capacity=params["capacity"] or 65_536,
            )
            envelope = report.to_dict()
            if params["limit"] is not None:
                envelope["events"] = envelope["events"][: params["limit"]]
            return envelope, 200

        return self._coalesced(key, compute)

    def _run_once(self, point) -> Tuple[Payload, int]:
        report = self._grid_report([point])
        if report.ok:
            answer = self._answers[point] = _encode(report.runs[0].to_dict())
            return answer, 200
        failure = report.accounting.failed[0]
        status = 504 if failure.kind == "timeout" else 500
        return wrap_error(failure.to_dict()), status

    def _coalesced(self, key: str, compute) -> Tuple[Payload, int]:
        """Single-leader execution of one sync request under admission
        control; followers ride the leader's future (dedup hits)."""
        future, leader = self.inflight.join(key)
        if not leader:
            self.metrics.counter("service.dedup_hits").inc()
            try:
                return future.result(timeout=self.config.request_timeout)
            except FutureTimeout:
                return (
                    error_envelope(
                        "timeout",
                        f"request not served within {self.config.request_timeout:g}s",
                        retriable=True,
                    ),
                    504,
                )
        if not self._sync_slots.acquire(blocking=False):
            result = self._saturated()
            self.inflight.resolve(key, future, result)
            return result
        try:
            result = compute()
        except wire.WireError:
            self.inflight.fail(key, future, RuntimeError("unreachable"))
            raise
        except Exception as exc:
            result = (
                error_envelope("internal", f"{type(exc).__name__}: {exc}"),
                500,
            )
        finally:
            self._sync_slots.release()
        self.inflight.resolve(key, future, result)
        return result

    def _saturated(self) -> Tuple[Dict, int]:
        """The ``503`` for a sync request past ``sync_limit``.

        Its ``Retry-After`` hint comes from the saturation itself:
        draining one sync slot takes roughly one median request, so the
        observed p50 latency is the honest advice — floored at 1s (the
        header is integer-seconds anyway, and a cold histogram reads 0).
        """
        p50 = self.metrics.histogram("service.latency_ms").quantile(0.5) or 0.0
        return (
            error_envelope(
                "saturated",
                f"more than {self.config.sync_limit} synchronous "
                "requests in flight",
                retriable=True,
                retry_after=max(1.0, round(p50 / 1000.0, 3)),
            ),
            503,
        )

    # -- async job submission ---------------------------------------------

    _PARSERS = {
        "grid": wire.parse_grid_request,
        "figure": wire.parse_figure_request,
        "headline": wire.parse_headline_request,
    }

    def submit(self, kind: str, body: Dict) -> Tuple[Dict, int]:
        """``POST /grid|/figure|/headline``: admit (or join) a job."""
        params, key = self._PARSERS[kind](body)
        try:
            job, deduped = self.jobs.submit(kind, params, key)
        except JobQueueFull as exc:
            return (
                error_envelope(
                    "saturated", str(exc), retriable=True,
                    queue_limit=exc.limit,
                    retry_after=exc.retry_after,
                ),
                503,
            )
        if deduped:
            self.metrics.counter("service.dedup_hits").inc()
        return job.to_dict(include_result=False), 202

    def cancel_job(self, job_id: str) -> Tuple[Dict, int]:
        """``DELETE /jobs/<id>``: cancel a queued or running job.

        A queued job answers ``200`` already terminal ``cancelled``; a
        running one answers ``202`` (the cancel signal is set; the job
        lands in ``cancelled`` once the grid fabric unwinds).  Cancelling
        an already-terminal job is a ``409`` conflict, an unknown id a
        ``404``.
        """
        job, outcome = self.jobs.cancel(job_id)
        if outcome == "unknown":
            return error_envelope("job.unknown", f"no job {job_id!r}"), 404
        if outcome == "terminal":
            return (
                error_envelope(
                    "job.terminal",
                    f"job {job_id} is already {job.state}; nothing to cancel",
                ),
                409,
            )
        return job.to_dict(include_result=False), (
            200 if outcome == "cancelled" else 202
        )

    # -- job executors (run on JobManager threads) -------------------------

    def _job_progress(self, job):
        """Scheduler progress hook -> job event stream + per-node table."""
        if job is None:
            return None

        def hook(event: str, **data) -> None:
            node = data.get("node")
            if node is not None:
                nodes = job.progress.setdefault("nodes", {})
                entry = nodes.setdefault(
                    str(node), {"completed": 0, "lost": 0, "state": "up"}
                )
                if event == "point.done":
                    entry["completed"] += 1
                elif event == "node.lost":
                    entry["lost"] += 1
                    entry["state"] = "lost"
                elif event == "node.spawn":
                    entry["state"] = "up"
                    entry["generation"] = data.get("generation")
                elif event == "node.quarantined":
                    entry["state"] = "quarantined"
                elif event == "node.recycled":
                    entry["recycled"] = entry.get("recycled", 0) + 1
            job.emit(f"dist.{event}", **data)

        return hook

    def _job_results(self, job):
        """Per-point streaming hook: every completed grid point lands on
        the job bus as a ``point.result`` event carrying the point's full
        ``repro.run/v1`` envelope — cache hits immediately, computed
        points as their worker/peer finishes — so
        ``GET /jobs/<id>/events?results=1`` consumes a big grid
        incrementally instead of polling for one terminal blob."""
        if job is None:
            return None

        def hook(point, stats_dict) -> None:
            result = api.RunResult(
                benchmark=point.name,
                width=point.width,
                ports=point.ports,
                mode=point.mode,
                scale=point.scale,
                block_on_scalar_operand=point.block_on_scalar_operand,
                stats=diskcache.stats_from_dict(stats_dict),
            ).to_dict()
            job.emit("point.result", result=result)

        return hook

    @staticmethod
    def _check_cancelled(job, cancelled: bool = False) -> None:
        """Land a cancel that the grid observed (or that raced the finish
        line) as :class:`JobCancelled` — the worker loop's signal to move
        the job to terminal ``cancelled``."""
        if cancelled or (job is not None and job.cancel_event.is_set()):
            raise JobCancelled()

    def _fabric(self, job=None) -> Dict:
        """The grid arguments every request shares: the daemon's scheduler,
        its fault policy, and the job's result stream, cancel signal and
        per-node progress."""
        return {
            "scheduler": self.scheduler,
            "task_timeout": self.config.request_timeout,
            "max_retries": self.config.max_retries,
            "on_result": self._job_results(job),
            "cancel": job.cancel_event if job is not None else None,
            "progress": self._job_progress(job),
        }

    def _grid_report(self, points, job=None):
        return api.grid(points, **self._fabric(job))

    def _execute_grid(self, params: Dict, job: Job) -> Dict:
        report = self._grid_report(params["points"], job)
        self._check_cancelled(job, report.accounting.cancelled)
        return report.to_dict()

    def _execute_figure(self, params: Dict, job: Job) -> Dict:
        try:
            result = api.figure(
                params["figure"],
                scale=params["scale"],
                **self._fabric(job),
            )
        except api.GridCancelled:
            raise JobCancelled()
        except api.GridFailureError as exc:
            self._check_cancelled(job)
            return wrap_error(exc.to_error())
        self._check_cancelled(job)
        return result.to_dict()

    def _execute_headline(self, params: Dict, job: Job) -> Dict:
        try:
            claims = api.headline(
                scale=params["scale"],
                **self._fabric(job),
            )
        except api.GridCancelled:
            raise JobCancelled()
        except api.GridFailureError as exc:
            self._check_cancelled(job)
            return wrap_error(exc.to_error())
        self._check_cancelled(job)
        return {
            "schema": SCHEMA_HEADLINE,
            "ok": True,
            "error": None,
            "scale": params["scale"],
            # Kept for repro.headline/v1: simulation is always exact.
            "sampled": False,
            "claims": claims,
        }

    # -- introspection -----------------------------------------------------

    def status(self) -> Dict:
        return {
            "schema": SCHEMA_SERVICE_STATUS,
            "ok": True,
            "error": None,
            "service": {
                "uptime_seconds": round(time.time() - self.started, 3),
                "jobs": self.jobs.counts(),
                "queue_depth": self.jobs.queue_depth(),
                "queue_limit": self.config.queue_limit,
                "sync_limit": self.config.sync_limit,
                "request_timeout": self.config.request_timeout,
                "pool": {
                    "jobs": self.scheduler.nodes,
                    "restarts": self.scheduler.restarts,
                },
                "dedup": {
                    "inflight": self.inflight.depth(),
                    "hits": int(self.metrics.counter("service.dedup_hits").value),
                },
                "schemas": list(schema_names()),
            },
        }

    def metrics_payload(self) -> Dict:
        histogram = self.metrics.histogram("service.latency_ms")
        return {
            "schema": SCHEMA_SERVICE_METRICS,
            "ok": True,
            "error": None,
            "metrics": self.metrics.to_dict(),
            "latency": {
                "count": histogram.total,
                "p50_ms": histogram.quantile(0.5),
                "p99_ms": histogram.quantile(0.99),
            },
        }

    # -- bookkeeping -------------------------------------------------------

    def _job_changed(self, job) -> None:
        self.metrics.gauge("service.queue_depth").set(self.jobs.queue_depth())
        if job.state == "running":
            self.metrics.counter("service.jobs_started").inc()
        elif job.terminal:
            self.metrics.counter(f"service.jobs_{job.state}").inc()

    def observe_request(self, route: str, status: int, elapsed: float) -> None:
        self.metrics.counter("service.requests").inc()
        self.metrics.counter(f"service.requests.{route}").inc()
        self.metrics.counter(f"service.http.{status}").inc()
        self.metrics.histogram("service.latency_ms").observe(
            int(elapsed * 1000)
        )


class _Handler(BaseHTTPRequestHandler):
    """Routing + envelope I/O; all state lives on ``server.service``.

    ``protocol_version = "HTTP/1.1"`` makes keep-alive the default: the
    connection thread loops on ``handle_one_request`` until the client
    closes (or a response explicitly sends ``Connection: close``).  The
    contract that makes this safe is *framing*: every JSON response
    carries ``Content-Length``, and every consumed request body is read
    to its full ``Content-Length`` — including bodies of requests that
    404 — so the next request on the wire starts exactly where the
    previous one ended.  A request whose length is ambiguous
    (``Transfer-Encoding``, conflicting ``Content-Length`` values) is
    answered ``400`` and its connection closed.

    The request head is parsed here, not by ``http.server``'s
    ``email``-based header parser, and a response leaves in one write
    (see :meth:`parse_request` and :meth:`_write`).
    """

    server_version = _SERVER
    protocol_version = _PROTOCOL
    #: the version an error answers in before the request line gave one.
    default_request_version = _PROTOCOL
    #: idle keep-alive connections are reaped after this many seconds
    #: (socket timeout; ``handle_one_request`` turns it into a close).
    timeout = 600
    #: Nagle + delayed-ACK would stall every response on a *reused*
    #: connection by ~40ms: with unacked data outstanding, a small
    #: body write queues behind the headers packet until the client's
    #: delayed ACK arrives.  TCP_NODELAY plus one write per response
    #: (head and body together, :meth:`_write`; the event stream writes
    #: one line at a time) keeps keep-alive latency below the
    #: per-request path instead of 5x it.
    disable_nagle_algorithm = True

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics registry's job

    # -- request head ------------------------------------------------------

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and the header block that follows.

        The request line is checked exactly as
        :meth:`BaseHTTPRequestHandler.parse_request` checks it: ``400``
        for a bad line or version, ``505`` from HTTP/2.0 on, and HTTP/0.9
        and HTTP/1.0 requests close their connection.  ``Connection`` and
        ``Expect: 100-continue`` are honoured as the stdlib honours them.
        One difference: only a two-word HTTP/0.9 request is answered
        without a status line.  The stdlib also answered a line of the
        wrong word count, or with a version it rejects, that way, so the
        client never saw the ``400`` or ``505``.  Returns False once an
        error has been answered.
        """
        self.command = None
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            self.request_version = "HTTP/0.9"
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command, self.path = command, path
        if path.startswith("//"):  # never an absolute URI without scheme
            self.path = "/" + path.lstrip("/")

        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _read_headers(self) -> Optional[_Headers]:
        """The header fields of the request, or None once an error has
        been answered: ``431`` past the stdlib's line and count limits,
        ``400`` for a line that is not ``name: value``, for conflicting
        ``Content-Length`` values and for any ``Transfer-Encoding``
        (chunked bodies are not supported, and RFC 9112 §6.3 makes a
        length that cannot be trusted a framing error).  A repeated field
        keeps its first value."""
        fields = _Headers()
        readline = self.rfile.readline
        for _ in range(_MAX_HEADERS):
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, "Line too long", "header line")
                return None
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or _FIELD_NAME.fullmatch(name) is None:
                self.send_error(400, f"Bad header line ({line[:64]!r})")
                return None
            key = name.lower()
            value = value.strip(" \t\r\n")
            first = fields.setdefault(key, value)
            if first != value and key == "content-length":
                self.send_error(
                    400, f"Conflicting Content-Length values ({first!r}, {value!r})"
                )
                return None
        else:
            self.send_error(
                431, "Too many headers", f"got more than {_MAX_HEADERS} headers"
            )
            return None
        if "transfer-encoding" in fields:
            self.send_error(
                400, "Transfer-Encoding is not supported; send Content-Length"
            )
            return None
        return fields

    def handle_expect_100(self) -> bool:
        """Answer ``100 Continue`` now: the client waits for it before it
        sends the body."""
        self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.wfile.flush()
        return True

    # -- responses ---------------------------------------------------------

    def _write(self, status: int, fields: bytes, body: bytes) -> None:
        """Send one response — status line, ``Server``, ``Date``, then
        ``fields`` and ``body`` — in a single write.

        As in ``http.server``, an HTTP/0.9 request gets the body alone
        and a ``HEAD`` request the head alone.
        """
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)
            return
        if self.command == "HEAD":
            body = b""
        self.wfile.write(
            b"%s%s\r\n%s\r\n%s" % (_HEADS[status], _http_date(), fields, body)
        )

    def _send_json(
        self, status: int, payload: Payload, retry_after: Optional[float] = None
    ) -> None:
        body = payload if isinstance(payload, bytes) else _encode(payload)
        fields = b"Content-Type: application/json\r\nContent-Length: %d\r\n" % len(body)
        if retry_after is not None:
            fields += b"Retry-After: %d\r\n" % max(1, int(retry_after))
        if self.close_connection:
            fields += b"Connection: close\r\n"
        self._write(status, fields, body)

    def send_error(self, code: int, message: Optional[str] = None, explain=None) -> None:
        """Answer a request the framing layer rejects with a
        ``repro.error/v1`` envelope and ``Connection: close``.

        ``http.server`` calls this for an unparseable request (``400``,
        ``414``, ``431``, ``505``: kind ``request.malformed``) and for a
        method without a ``do_*`` handler (``501``:
        ``http.not_implemented``).
        """
        self.close_connection = True
        kind = "http.not_implemented" if code == 501 else "request.malformed"
        text = message or HTTPStatus(code).phrase
        if explain:
            text = f"{text}: {explain}"
        self._send_json(code, error_envelope(kind, text))

    def _content_length(self) -> int:
        """The request body's length; a value that is not a non-negative
        integer loses the framing, so it answers 400 and closes."""
        value = (self.headers.get("Content-Length") or "0").strip()
        if not (value.isascii() and value.isdigit()):
            self.close_connection = True
            raise wire.WireError(
                "request.malformed", f"invalid Content-Length {value!r}"
            )
        return int(value)

    def _read_body(self) -> Dict:
        length = self._content_length()
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise wire.WireError("request.malformed", "empty request body")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise wire.WireError("request.malformed", f"invalid JSON body: {exc}")
        if not isinstance(body, dict):
            raise wire.WireError("request.malformed", "request body must be a JSON object")
        return body

    def _drain_body(self) -> None:
        """Discard an unconsumed request body (e.g. a POST that 404s).

        Keep-alive framing depends on it: leftover body bytes would be
        parsed as the next request's start line and poison every later
        exchange on the connection.
        """
        length = self._content_length()
        while length > 0:
            chunk = self.rfile.read(min(length, 65_536))
            if not chunk:
                break
            length -= len(chunk)

    def _dispatch(self, route: str, fn, *args) -> None:
        start = time.monotonic()
        status = 500
        try:
            payload, status = fn(*args)
            retry = None
            if status == 503:
                # The saturated layer knows how long it needs: the job
                # queue's own retry_after, or the sync path's p50-derived
                # hint, ride in the error object.
                retry = (payload.get("error") or {}).get("retry_after") or 1.0
            self._send_json(status, payload, retry_after=retry)
        except wire.WireError as exc:
            status = 400
            self._send_json(status, error_envelope(exc.kind, str(exc)))
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away; nothing left to answer
            self.close_connection = True
        except Exception as exc:  # the daemon must outlive any request
            self.close_connection = True  # the response may be half-written
            try:
                self._send_json(
                    status, error_envelope("internal", f"{type(exc).__name__}: {exc}")
                )
            except Exception:
                pass
        finally:
            self.service.observe_request(route, status, time.monotonic() - start)

    def _not_found(self) -> Tuple[Dict, int]:
        return error_envelope("http.not_found", f"no route {self.path!r}"), 404

    def _post_not_found(self) -> Tuple[Dict, int]:
        self._drain_body()  # keep-alive: never leave body bytes unread
        return self._not_found()

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/status" or path == "":
            return self._dispatch("status", lambda: (self.service.status(), 200))
        if path == "/metrics":
            return self._dispatch(
                "metrics", lambda: (self.service.metrics_payload(), 200)
            )
        if path.startswith("/jobs/"):
            parts = path.split("/")[2:]
            if len(parts) == 1:
                return self._dispatch("jobs.get", self._job_payload, parts[0])
            if len(parts) == 2 and parts[1] == "events":
                return self._stream_events(parts[0])
        self._dispatch("not_found", self._not_found)

    #: ``POST`` path -> (metrics route, ``fn(handler)`` answering it).
    _POST_ROUTES = {
        "/run": ("run", lambda h: h.service.run(h._read_body())),
        "/trace": ("trace", lambda h: h.service.trace(h._read_body())),
        "/grid": ("grid", lambda h: h.service.submit("grid", h._read_body())),
        "/figure": ("figure", lambda h: h.service.submit("figure", h._read_body())),
        "/headline": (
            "headline", lambda h: h.service.submit("headline", h._read_body())
        ),
    }

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        route = self._POST_ROUTES.get(self.path.split("?", 1)[0].rstrip("/"))
        if route is None:
            return self._dispatch("not_found", self._post_not_found)
        self._dispatch(route[0], route[1], self)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = path.split("/")
        if len(parts) == 3 and parts[1] == "jobs" and parts[2]:
            return self._dispatch("jobs.cancel", self.service.cancel_job, parts[2])
        self._dispatch("not_found", self._not_found)

    # -- jobs --------------------------------------------------------------

    def _job_payload(self, job_id: str) -> Tuple[Dict, int]:
        job = self.service.jobs.get(job_id)
        if job is None:
            return error_envelope("job.unknown", f"no job {job_id!r}"), 404
        envelope = job.to_dict()
        if job.state == "cancelled":
            # Client-initiated outcome, not a server failure: the
            # envelope is not-ok (error kind job.cancelled) but the poll
            # itself succeeded.
            return envelope, 200
        return envelope, (200 if envelope["ok"] else 500)

    def _stream_events(self, job_id: str) -> None:
        """NDJSON progress stream: one envelope per line, fed from the
        job's event bus, ending with the terminal job envelope.

        ``?results=1`` additionally delivers each completed grid point's
        ``repro.run/v1`` envelope (``point.result`` events); without it
        they are filtered out so progress-only followers stay cheap.
        """
        start = time.monotonic()
        service = self.service
        job = service.jobs.get(job_id)
        if job is None:
            self._dispatch(
                "jobs.events",
                lambda: (error_envelope("job.unknown", f"no job {job_id!r}"), 404),
            )
            return
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query)
        results = query.get("results", ["0"])[-1].lower() in ("1", "true", "yes")
        status = 200
        # Unframed stream: Connection: close is the length marker.
        self.close_connection = True
        try:
            self._write(
                200, b"Content-Type: application/x-ndjson\r\nConnection: close\r\n", b""
            )
            for envelope in service.jobs.follow(
                job,
                timeout=service.config.request_timeout,
                include_results=results,
            ):
                self.wfile.write(_encode(envelope) + b"\n")
        except (BrokenPipeError, ConnectionResetError):
            status = 499
        finally:
            service.observe_request("jobs.events", status, time.monotonic() - start)


class _Server(ThreadingHTTPServer):
    """One thread per connection, with a listen backlog sized for bursts.

    The stdlib default backlog of 5 is far below the daemon's admission
    bounds: a herd of fresh connections (per-request clients, a
    reconnect storm) would overflow it into kernel SYN retransmits —
    second-long connect stalls that look like server latency.  Admission
    control belongs to the sync/queue limits, not to the accept queue.
    """

    request_queue_size = 128


def build_server(
    config: Optional[ServiceConfig] = None,
    service: Optional[SimulationService] = None,
) -> ThreadingHTTPServer:
    """An unstarted server bound to ``config.host:port`` (port 0 = ephemeral).

    The :class:`SimulationService` rides on ``server.service``; callers
    own the lifecycle (``serve_forever`` / ``shutdown`` +
    ``server.service.shutdown()``).
    """
    config = config or ServiceConfig()
    server = _Server((config.host, config.port), _Handler)
    server.daemon_threads = True
    server.service = service or SimulationService(config)  # type: ignore[attr-defined]
    return server


def serve(config: Optional[ServiceConfig] = None, warm: bool = True) -> int:
    """Run the daemon until interrupted (the ``python -m repro serve`` body)."""
    config = config or ServiceConfig()
    server = build_server(config)
    service: SimulationService = server.service  # type: ignore[attr-defined]
    if warm:
        warmed = service.warm()
        print(f"serve: warmed {warmed} worker peer(s)", file=sys.stderr)
    host, port = server.server_address[:2]
    print(
        f"serve: listening on http://{host}:{port} "
        f"(pool={service.scheduler.nodes}, sync_limit={config.sync_limit}, "
        f"queue_limit={config.queue_limit})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.shutdown()
    return 0
