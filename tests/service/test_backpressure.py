"""Admission control: bounded queues answer 503, not unbounded pile-up."""

from __future__ import annotations

import threading
import time

import pytest

from repro.schemas import SCHEMA_GRID, envelope, validate_envelope
from repro.service.jobs import JobManager, JobQueueFull


def _ok_envelope(params, job):
    return envelope(SCHEMA_GRID, accounting={}, failures=[], runs=[])


class TestJobManager:
    def test_queue_bound_raises(self):
        """workers=1 + queue_limit=2: one running, two queued, the fourth
        distinct submission is refused."""
        gate = threading.Event()
        started = threading.Event()

        def gated(params, job):
            started.set()
            assert gate.wait(10.0)
            return _ok_envelope(params, job)

        manager = JobManager({"grid": gated}, queue_limit=2, workers=1)
        try:
            first, _ = manager.submit("grid", {}, "k1")
            assert started.wait(5.0)  # k1 is running, not queued
            manager.submit("grid", {}, "k2")
            manager.submit("grid", {}, "k3")
            with pytest.raises(JobQueueFull) as excinfo:
                manager.submit("grid", {}, "k4")
            assert excinfo.value.limit == 2
            gate.set()
            deadline = time.monotonic() + 10.0
            while manager.counts()["done"] < 3:
                assert time.monotonic() < deadline, manager.counts()
                time.sleep(0.02)
        finally:
            gate.set()
            manager.shutdown()

    def test_dedup_joins_live_and_retries_failed(self):
        manager = JobManager(
            {"grid": _ok_envelope, "boom": lambda p, job: 1 / 0}, queue_limit=4, workers=1
        )
        try:
            job, deduped = manager.submit("grid", {}, "key")
            assert not deduped
            joined, deduped = manager.submit("grid", {}, "key")
            assert deduped and joined is job
            assert joined.dedup_hits == 1

            failing, _ = manager.submit("boom", {}, "bad")
            deadline = time.monotonic() + 10.0
            while not failing.terminal:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert failing.state == "failed"
            assert failing.error["kind"] == "job.crashed"
            assert validate_envelope(failing.to_dict())["name"] == "repro.service.job"
            # a failed predecessor does NOT satisfy a new identical request
            retry, deduped = manager.submit("boom", {}, "bad")
            assert not deduped and retry is not failing
        finally:
            manager.shutdown()


def test_http_503_with_retry_after(daemon):
    """Past the queue bound the daemon answers 503 + Retry-After with a
    valid saturated error envelope, and recovers once drained."""
    server, client = daemon(queue_limit=1, job_workers=1)
    gate = threading.Event()
    started = threading.Event()

    def gated(params, job):
        started.set()
        assert gate.wait(30.0)
        return _ok_envelope(params, job)

    # deterministic saturation: the real executor would race the test
    server.service.jobs._executors["grid"] = gated
    try:
        point = {"benchmark": "compress", "mode": "V"}
        status, first, _ = client.request(
            "POST", "/grid", {"points": [{**point, "scale": 3_410}]}
        )
        assert status == 202
        assert started.wait(5.0)  # running now, queue empty
        status, _, _ = client.request(
            "POST", "/grid", {"points": [{**point, "scale": 3_411}]}
        )
        assert status == 202  # fills the queue_limit=1 slot
        status, payload, headers = client.request(
            "POST", "/grid", {"points": [{**point, "scale": 3_412}]}
        )
        assert status == 503
        info = validate_envelope(payload)
        assert info["name"] == "repro.error"
        assert payload["error"]["kind"] == "saturated"
        assert payload["error"]["retriable"] is True
        assert payload["error"]["queue_limit"] == 1
        assert int(headers["Retry-After"]) >= 1
    finally:
        gate.set()
    client.wait_job(first["job"]["id"])
    # drained: the same request is admitted now
    status, _, _ = client.request(
        "POST", "/grid", {"points": [{**point, "scale": 3_412}]}
    )
    assert status == 202
