"""Regression suite for the event-stream ring-buffer cursor.

The original ``Job.events()`` indexed ``list(bus.events)[start:]`` with a
*list* cursor, but :class:`repro.observe.TraceBus` is a bounded deque —
once a job emits more events than the ring holds, a list index pointing
at "the next unseen event" silently drifts backwards as old events drop,
re-yielding duplicates and/or skipping whole stretches.  The fix tracks
the bus's **absolute** sequence (``bus.emitted``) and reports evicted
events as an explicit ``events.dropped`` marker.
"""

from __future__ import annotations

import threading
import time

from repro.observe import TraceBus
from repro.schemas import SCHEMA_GRID, envelope, validate_envelope
from repro.service.jobs import Job, JobManager


def _ids(envelopes):
    """The per-job sequence numbers of a batch of event envelopes."""
    return [
        e["event"]["cycle"] for e in envelopes
        if e.get("schema") == "repro.service.event/v1"
        and e["event"]["kind"] != "events.dropped"
    ]


class TestEventsSince:
    def test_cursor_survives_ring_overrun(self):
        """Events past capacity: no duplicates, no silent skips — the
        eviction is reported as an explicit drop count.

        On the old list-index cursor this fails: after 16 emissions into
        a capacity-8 ring, ``list(events)[6:]`` returns the last two
        events (absolute 14, 15), silently skipping 8..13.
        """
        job = Job("grid", "key", {})
        job.bus = TraceBus(capacity=8)
        for i in range(6):
            job.emit("tick", i=i)
        first, cursor, dropped = job.events_since(0)
        assert _ids(first) == list(range(6))
        assert cursor == 6 and dropped == 0

        for i in range(6, 16):  # overruns: ring now holds absolute 8..15
            job.emit("tick", i=i)
        rest, cursor, dropped = job.events_since(cursor)
        assert dropped == 2          # absolute 6 and 7 were evicted
        assert _ids(rest) == list(range(8, 16))  # no dups, no skips
        assert cursor == 16

        # Caught up: nothing new, nothing dropped.
        again, cursor, dropped = job.events_since(cursor)
        assert again == [] and dropped == 0 and cursor == 16

    def test_no_duplicates_past_capacity_events(self):
        """A full wrap (> capacity events in one burst) delivers each
        surviving event exactly once."""
        job = Job("grid", "key", {})
        job.bus = TraceBus(capacity=32)
        seen = []
        cursor = 0
        for burst in (10, 100, 7):  # middle burst overruns the ring
            for _ in range(burst):
                job.emit("tick")
            events, cursor, dropped = job.events_since(cursor)
            seen.extend(_ids(events))
        assert len(seen) == len(set(seen)), "duplicate events delivered"
        assert sorted(seen) == seen, "events delivered out of order"
        assert seen[-1] == 116  # the very last emission always arrives


class TestFollow:
    def test_follow_emits_dropped_marker_on_overrun(self):
        """A live ``follow()`` stream wrapped mid-flight yields an
        ``events.dropped`` marker in place of the evicted events, then
        resumes exactly at the surviving window — no duplicates."""
        manager = JobManager({"grid": lambda p, job: envelope(
            SCHEMA_GRID, accounting={}, failures=[], runs=[]
        )}, workers=1)
        try:
            job = Job("grid", "key", {})
            job.bus = TraceBus(capacity=16)
            stream = manager.follow(job, timeout=10.0)
            for i in range(10):
                job.emit("tick", i=i)
            head = [next(stream) for _ in range(10)]
            assert _ids(head) == list(range(10))

            # Overrun the ring while the consumer is paused mid-stream.
            for i in range(10, 110):
                job.emit("tick", i=i)
            marker = next(stream)
            assert marker["event"]["kind"] == "events.dropped"
            assert marker["event"]["dropped"] == 84  # 10..93 evicted
            assert marker["event"]["capacity"] == 16
            validate_envelope(marker)
            tail = [next(stream) for _ in range(16)]
            assert _ids(tail) == list(range(94, 110))

            # Terminal: the stream ends with the job envelope.
            with manager._lock:
                job.state = "done"
                job.emit("job.done")
                manager._changed.notify_all()
            final = list(stream)
            assert final[-1]["schema"].startswith("repro.service.job/")
            assert _ids(final[:-1]) == [110]  # just the job.done event
        finally:
            manager.shutdown()

    def test_follow_timeout_yields_terminal_error_envelope(self):
        """A stream that outlives its timeout ends with an explicit
        ``stream.timeout`` error envelope (retriable), distinguishable
        from normal completion (which ends with the job envelope)."""
        manager = JobManager({"grid": lambda p, job: envelope(
            SCHEMA_GRID, accounting={}, failures=[], runs=[]
        )}, workers=1)
        try:
            job = Job("grid", "key", {})  # never submitted: stays queued
            out = list(manager.follow(job, timeout=0.2))
            assert len(out) == 1
            info = validate_envelope(out[0])
            assert info["name"] == "repro.error"
            assert out[0]["error"]["kind"] == "stream.timeout"
            assert out[0]["error"]["retriable"] is True
        finally:
            manager.shutdown()

    def test_stream_past_capacity_over_http(self, daemon):
        """End to end: a job that emits more events than its ring holds
        streams without duplicates over the HTTP NDJSON path, with the
        overrun visible as ``events.dropped``."""
        server, client = daemon(job_workers=1)
        gate = threading.Event()

        def chatty(params, job):
            # Called on the manager worker thread with the job attached.
            job.bus = TraceBus(capacity=64)  # shrink the window for the test
            for i in range(500):
                job.emit("tick", i=i)
            assert gate.wait(30.0)
            return envelope(SCHEMA_GRID, accounting={}, failures=[], runs=[])

        server.service.jobs._executors["grid"] = chatty
        status, payload, _ = client.request(
            "POST", "/grid",
            {"points": [{"benchmark": "compress", "mode": "V", "scale": 3_520}]},
        )
        assert status == 202
        job_id = payload["job"]["id"]
        # Let the executor flood the ring before the stream attaches.
        job = server.service.jobs.get(job_id)
        deadline = time.monotonic() + 10.0
        while job.bus.emitted < 500:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        gate.set()
        status, raw, _ = client.raw(
            "GET", f"/jobs/{job_id}/events", timeout=60.0
        )
        assert status == 200
        import json as _json

        lines = [_json.loads(line) for line in raw.splitlines()]
        ids = _ids(lines[:-1])
        assert len(ids) == len(set(ids)), "duplicate events on the wire"
        assert sorted(ids) == ids
        dropped = sum(
            line["event"]["dropped"] for line in lines
            if line.get("schema") == "repro.service.event/v1"
            and line["event"]["kind"] == "events.dropped"
        )
        # Every emission is accounted for: delivered + dropped = emitted.
        assert len(ids) + dropped == job.bus.emitted
        assert lines[-1]["schema"].startswith("repro.service.job/")
