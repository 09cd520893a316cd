"""The async job table: bounded admission, dedup, states, progress events.

``grid`` / ``figure`` / ``headline`` requests are minutes-long at real
scales — the service answers them with a **job**: ``202`` + a job id to
poll (``GET /jobs/<id>``) or stream (``GET /jobs/<id>/events``, NDJSON).

* States walk ``queued -> running -> done | failed | cancelled``; the
  terminal payload is the ordinary :mod:`repro.api` envelope for the
  request.  ``DELETE /jobs/<id>`` cancels: a queued job moves straight
  to ``cancelled``; a running one gets its :attr:`Job.cancel_event` set
  and reaches ``cancelled`` when the executor observes it (raising
  :class:`JobCancelled`).
* Admission is **bounded**: past ``queue_limit`` queued jobs,
  :meth:`JobManager.submit` raises :class:`JobQueueFull` and the server
  answers ``503`` + ``Retry-After`` — saturation is visible, not an
  unbounded pile-up.
* Submission **dedups** on the request's content-hash key: an identical
  request finding a live (non-failed) job joins it instead of enqueueing
  a twin — the 16-identical-grids herd costs one grid computation.
* Every state change lands on the job's own
  :class:`repro.observe.TraceBus` as a typed event; the NDJSON stream is
  fed straight from that bus.

Execution happens on a small thread pool (the heavy lifting is in the
shared scheduler's worker-peer *processes*; these threads mostly wait on
their batches), so a wedged grid cannot starve the HTTP front.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import OrderedDict, deque
from typing import Callable, Dict, Optional

from ..observe import TraceBus
from ..schemas import SCHEMA_JOB, SCHEMA_SERVICE_EVENT, envelope, error_dict, error_envelope

#: the job lifecycle; ``done``/``failed``/``cancelled`` are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


class JobQueueFull(RuntimeError):
    """Admission control: the bounded job queue is saturated."""

    def __init__(self, limit: int, retry_after: float = 1.0) -> None:
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(f"job queue full ({limit} queued)")


class JobCancelled(Exception):
    """Raised by an executor that observed its job's cancel signal.

    Deliberately **not** a ``RuntimeError``: the worker loop must tell
    "the client abandoned this job" apart from "the executor broke".
    """


class Job:
    """One submitted request: identity, state, result, progress bus."""

    def __init__(self, kind: str, key: str, params: Dict) -> None:
        self.id = uuid.uuid4().hex[:12]
        self.kind = kind
        self.key = key
        self.params = params
        self.state = "queued"
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.result: Optional[Dict] = None   #: terminal api envelope
        self.error: Optional[Dict] = None    #: repro.error/v1 object when failed
        self.dedup_hits = 0
        #: live executor-maintained progress (e.g. the scheduler's
        #: per-node table); shown on ``/jobs/<id>`` while the
        #: job runs, alongside the event stream.
        self.progress: Dict = {}
        #: set by :meth:`JobManager.cancel` on a running job; executors
        #: plumb it down to the grid fabric as the cooperative stop signal.
        self.cancel_event = threading.Event()
        self.bus = TraceBus(capacity=4096)
        self._seq = itertools.count()
        # Executor threads emit (point.result, dist.*) without the
        # manager lock, so the bus's (emitted, events) pair needs its own
        # lock to stay coherent for the absolute-cursor reads below.
        self._bus_lock = threading.Lock()

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def emit(self, kind: str, **data) -> None:
        """One progress event (stamped with job id + wall clock)."""
        with self._bus_lock:
            self.bus.emit(
                next(self._seq), kind,
                job=self.id, state=self.state, ts=round(time.time(), 3), **data,
            )

    def events_since(self, cursor: int):
        """Buffered events with *absolute* sequence >= ``cursor``.

        The bus is a bounded ring (oldest events drop past capacity), so
        a plain list index drifts once the window overruns — the classic
        duplicate/skip bug.  The buffer always holds the absolute range
        ``[bus.emitted - len(bus.events), bus.emitted)``; anything older
        than that window is gone and reported as ``dropped``.

        Returns ``(envelopes, next_cursor, dropped)`` where
        ``next_cursor`` is the absolute sequence to resume from.
        """
        with self._bus_lock:
            events = list(self.bus.events)
            emitted = self.bus.emitted
        oldest = emitted - len(events)
        dropped = max(0, oldest - cursor)
        envelopes = [
            envelope(SCHEMA_SERVICE_EVENT, event=event.to_dict())
            for event in events[max(0, cursor - oldest):]
        ]
        return envelopes, emitted, dropped

    def dropped_marker(self, dropped: int) -> Dict:
        """The explicit overrun marker a stream yields in place of the
        events the ring buffer already evicted."""
        return envelope(SCHEMA_SERVICE_EVENT, event={
            "kind": "events.dropped",
            "job": self.id,
            "dropped": dropped,
            "capacity": self.bus.capacity,
        })

    def to_dict(self, include_result: bool = True) -> Dict:
        """The ``repro.service.job/v2`` envelope for this job."""
        failed = self.state in ("failed", "cancelled")
        job = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "state": self.state,
            "created": round(self.created, 3),
            "started": round(self.started, 3) if self.started else None,
            "finished": round(self.finished, 3) if self.finished else None,
            "dedup_hits": self.dedup_hits,
            "events": self.bus.emitted,
        }
        if self.cancel_event.is_set() and not self.terminal:
            job["cancelling"] = True
        if self.progress:
            job["progress"] = dict(self.progress)
        if include_result:
            job["result"] = self.result
        return envelope(SCHEMA_JOB, ok=not failed, error=self.error if failed else None, job=job)


class JobManager:
    """Bounded queue + worker threads + dedup + retention for jobs.

    ``executors`` maps a job kind to a callable ``(params, job) ->
    envelope`` (the job lets it publish progress and observe cancels);
    an envelope with ``ok`` False (or a raised exception, turned into a
    ``job.crashed`` error object) fails the job.  ``notify`` (optional)
    is called after every state change — the server uses it to bump
    metrics without this module importing the metrics registry.
    """

    def __init__(
        self,
        executors: Dict[str, Callable[[Dict, Job], Dict]],
        queue_limit: int = 16,
        workers: int = 2,
        history: int = 256,
        notify: Optional[Callable[[Job], None]] = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._executors = dict(executors)
        self.queue_limit = queue_limit
        self.history = max(history, queue_limit + workers)
        self._notify = notify
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._queue: deque = deque()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._by_key: Dict[str, Job] = {}
        self._shutdown = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"repro-job-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, kind: str, params: Dict, key: str):
        """Admit one request; returns ``(job, deduped)``.

        An identical request (same ``key``) with a live — queued, running
        or successfully done — job joins that job instead of enqueueing;
        a *failed* or *cancelled* predecessor is retried with a fresh
        job.  Raises :class:`JobQueueFull` past the queue bound.
        """
        if kind not in self._executors:
            raise ValueError(f"no executor for job kind {kind!r}")
        with self._lock:
            existing = self._by_key.get(key)
            joinable = (
                existing is not None
                and existing.state not in ("failed", "cancelled")
                and not existing.cancel_event.is_set()  # already condemned
            )
            if joinable:
                existing.dedup_hits += 1
                existing.emit("job.dedup")
                return existing, True
            queued = sum(1 for job in self._jobs.values() if job.state == "queued")
            if queued >= self.queue_limit:
                raise JobQueueFull(self.queue_limit, self._retry_hint_locked())
            job = Job(kind, key, params)
            self._jobs[job.id] = job
            self._by_key[key] = job
            self._queue.append(job)
            self._evict_locked()
            job.emit("job.queued")
            self._changed.notify_all()
        self._notify and self._notify(job)
        return job, False

    def _retry_hint_locked(self) -> float:
        """``Retry-After`` advice when the queue is full: the mean
        duration of recently finished jobs — one slot frees roughly per
        job — floored at 1s (and 1s when nothing has finished yet)."""
        durations = [
            job.finished - job.started
            for job in self._jobs.values()
            if job.finished is not None and job.started is not None
        ][-16:]
        if not durations:
            return 1.0
        return max(1.0, round(sum(durations) / len(durations), 3))

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> Dict[str, int]:
        """Jobs per state (the status endpoint's view)."""
        out = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] += 1
        return out

    def queue_depth(self) -> int:
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.state == "queued")

    # -- cancellation ------------------------------------------------------

    def cancel(self, job_id: str):
        """Cancel one job; returns ``(job, outcome)``.

        Outcomes: ``"unknown"`` (no such job), ``"terminal"`` (already
        done/failed/cancelled — nothing to cancel), ``"cancelled"`` (was
        queued; now terminal ``cancelled``), ``"cancelling"`` (running;
        the cancel signal is set and the job reaches ``cancelled`` when
        its executor observes it).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None, "unknown"
            if job.terminal:
                return job, "terminal"
            if job.state == "queued":
                # _worker pops + flips to running under this same lock,
                # so state == queued guarantees queue membership.
                self._queue.remove(job)
                job.cancel_event.set()
                self._finish_cancelled_locked(job)
                outcome = "cancelled"
            else:
                job.cancel_event.set()
                job.emit("job.cancel_requested")
                self._changed.notify_all()
                outcome = "cancelling"
        self._notify and self._notify(job)
        return job, outcome

    def _finish_cancelled_locked(self, job: Job) -> None:
        """Move ``job`` to terminal ``cancelled`` (caller holds the lock)."""
        job.result = None
        job.error = error_dict(
            "job.cancelled",
            "job cancelled by client request",
            retriable=True,
        )
        job.finished = time.time()
        job.state = "cancelled"
        job.emit("job.cancelled")
        self._changed.notify_all()

    # -- following ---------------------------------------------------------

    def follow(self, job: Job, timeout: float = 300.0, include_results: bool = False):
        """Yield event envelopes until ``job`` is terminal (then a final
        job envelope), waiting for new events as they land.

        The cursor is the bus's *absolute* sequence number, so a stream
        survives ring-buffer overrun: evicted events are summarized by an
        explicit ``events.dropped`` marker instead of duplicates/skips.
        ``point.result`` events (full per-point payloads) are filtered
        out unless ``include_results`` — they dwarf the progress events.
        A stream that outlives ``timeout`` ends with a terminal
        ``stream.timeout`` error envelope, distinguishable from normal
        completion (which ends with the job envelope).
        """
        deadline = time.monotonic() + timeout
        cursor = 0
        while True:
            with self._lock:
                events, cursor, dropped = job.events_since(cursor)
                terminal = job.terminal
                if not events and not dropped and not terminal:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        yield error_envelope(
                            "stream.timeout",
                            f"event stream exceeded {timeout:g}s; job "
                            f"{job.id} is still {job.state} — reconnect "
                            "to resume",
                            retriable=True,
                        )
                        return
                    self._changed.wait(min(remaining, 1.0))
                    continue
            if dropped:
                yield job.dropped_marker(dropped)
            for envelope in events:
                if include_results or envelope["event"].get("kind") != "point.result":
                    yield envelope
            if terminal:
                yield job.to_dict(include_result=False)
                return

    # -- execution ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._shutdown:
                    self._changed.wait(1.0)
                if self._shutdown:
                    return
                job = self._queue.popleft()
                job.state = "running"
                job.started = time.time()
                job.emit("job.running")
                self._changed.notify_all()
            self._notify and self._notify(job)
            try:
                envelope = self._executors[job.kind](job.params, job)
                failed = not envelope.get("ok", False)
                error = envelope.get("error") if failed else None
                if failed and error is None:
                    error = error_dict(
                        "job.invalid_result",
                        f"executor for {job.kind!r} returned a non-ok "
                        "envelope without an error object",
                    )
            except JobCancelled:
                with self._lock:
                    self._finish_cancelled_locked(job)
                self._notify and self._notify(job)
                continue
            except Exception as exc:  # containment: a job bug must not kill the worker
                envelope = None
                failed = True
                error = error_dict(
                    "job.crashed", f"{type(exc).__name__}: {exc}", retriable=True
                )
            with self._lock:
                job.result = envelope
                job.error = error
                job.finished = time.time()
                job.state = "failed" if failed else "done"
                job.emit("job.failed" if failed else "job.done")
                self._changed.notify_all()
            self._notify and self._notify(job)

    def _evict_locked(self) -> None:
        """Drop the oldest *terminal* jobs past the retention bound."""
        excess = len(self._jobs) - self.history
        if excess <= 0:
            return
        for job_id in [
            jid for jid, job in self._jobs.items() if job.terminal
        ][:excess]:
            job = self._jobs.pop(job_id)
            if self._by_key.get(job.key) is job:
                del self._by_key[job.key]

    def shutdown(self) -> None:
        """Stop the worker threads (queued jobs stay queued, unserved)."""
        with self._lock:
            self._shutdown = True
            self._changed.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
