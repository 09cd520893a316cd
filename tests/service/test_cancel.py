"""``DELETE /jobs/<id>``: the cancellation path, end to end.

Queued jobs move straight to terminal ``cancelled``; running jobs get a
cooperative stop signal that the grid fabric observes — the job's queued
points are dropped, the peers running its points are recycled — and
whatever completed first stays cached for the next identical request.
"""

from __future__ import annotations

import threading
import time

from repro.schemas import envelope, validate_envelope, SCHEMA_GRID


#: enough work per point that a running grid leaves a comfortable cancel
#: window after its first result (~150 KIPS -> roughly 1s per point).
SLOW_SCALE = 150_000


def _slow_points(scale=SLOW_SCALE, n=6):
    return [
        {"benchmark": bench, "mode": mode, "scale": scale}
        for bench in ("compress", "go", "li")
        for mode in ("noIM", "V")
    ][:n]


def _wait_first_result(server, job_id, timeout=60.0):
    """Block until the job has streamed >= 1 ``point.result`` event."""
    job = server.service.jobs.get(job_id)
    assert job is not None
    deadline = time.monotonic() + timeout
    while job.bus.count("point.result") < 1:
        assert not job.terminal, f"job finished before first result: {job.state}"
        assert time.monotonic() < deadline, "no point.result within the deadline"
        time.sleep(0.02)
    return job


def _counter(metrics_payload, name):
    entry = metrics_payload["metrics"].get(name)
    return entry["data"] if entry else 0


class TestCancelQueued:
    def test_queued_job_cancels_immediately(self, daemon):
        """A queued job answers 200 already terminal ``cancelled`` and
        never runs; ``service.jobs_cancelled`` ticks."""
        server, client = daemon(job_workers=1)
        gate = threading.Event()
        started = threading.Event()
        ran = []

        def gated(params, job):
            started.set()
            assert gate.wait(30.0)
            ran.append(params)
            return envelope(SCHEMA_GRID, accounting={}, failures=[], runs=[])

        server.service.jobs._executors["grid"] = gated
        try:
            point = {"benchmark": "compress", "mode": "V"}
            status, first, _ = client.request(
                "POST", "/grid", {"points": [{**point, "scale": 3_510}]}
            )
            assert status == 202
            assert started.wait(5.0)  # occupies the single worker
            status, queued, _ = client.request(
                "POST", "/grid", {"points": [{**point, "scale": 3_511}]}
            )
            assert status == 202
            assert queued["job"]["state"] == "queued"

            status, payload, _ = client.request(
                "DELETE", f"/jobs/{queued['job']['id']}"
            )
            assert status == 200
            info = validate_envelope(payload)
            assert info["schema"] == "repro.service.job/v2"
            assert payload["ok"] is False
            assert payload["job"]["state"] == "cancelled"
            assert payload["error"]["kind"] == "job.cancelled"
            assert payload["error"]["retriable"] is True
        finally:
            gate.set()
        client.wait_job(first["job"]["id"])
        assert len(ran) == 1  # the cancelled job never reached the executor

        _, status_payload, _ = client.request("GET", "/status")
        assert status_payload["service"]["jobs"]["cancelled"] == 1
        _, metrics_payload, _ = client.request("GET", "/metrics")
        assert _counter(metrics_payload, "service.jobs_cancelled") == 1

    def test_cancelled_key_is_retriable(self, daemon):
        """A cancelled predecessor does not satisfy dedup: resubmitting
        the identical request gets a fresh job."""
        server, client = daemon(job_workers=1)
        gate = threading.Event()
        started = threading.Event()

        def gated(params, job):
            started.set()
            assert gate.wait(30.0)
            return envelope(SCHEMA_GRID, accounting={}, failures=[], runs=[])

        server.service.jobs._executors["grid"] = gated
        body = {"points": [{"benchmark": "compress", "mode": "V", "scale": 3_512}]}
        try:
            status, blocker, _ = client.request(
                "POST", "/grid",
                {"points": [{"benchmark": "go", "mode": "V", "scale": 3_513}]},
            )
            assert started.wait(5.0)
            status, queued, _ = client.request("POST", "/grid", body)
            assert queued["job"]["state"] == "queued"
            client.request("DELETE", f"/jobs/{queued['job']['id']}")
            status, again, _ = client.request("POST", "/grid", body)
            assert status == 202
            assert again["job"]["id"] != queued["job"]["id"]
            assert again["job"]["dedup_hits"] == 0
        finally:
            gate.set()
        client.wait_job(blocker["job"]["id"])
        client.wait_job(again["job"]["id"])


class TestCancelEdges:
    def test_unknown_job_404(self, daemon):
        _, client = daemon()
        status, payload, _ = client.request("DELETE", "/jobs/nope")
        assert status == 404
        assert payload["error"]["kind"] == "job.unknown"

    def test_terminal_job_409(self, daemon):
        """Cancelling a finished job is a conflict, not a state change."""
        _, client = daemon()
        status, payload, _ = client.request(
            "POST", "/grid",
            {"points": [{"benchmark": "compress", "mode": "noIM", "scale": 2_400}]},
        )
        assert status == 202
        job_id = payload["job"]["id"]
        final = client.wait_job(job_id)
        assert final["job"]["state"] == "done"
        status, payload, _ = client.request("DELETE", f"/jobs/{job_id}")
        assert status == 409
        assert payload["error"]["kind"] == "job.terminal"
        # and the job's result is still intact afterwards
        assert client.wait_job(job_id)["job"]["state"] == "done"


class TestCancelRunning:
    def test_local_backend_cancel_mid_grid(self, daemon, tmp_path, monkeypatch):
        """Cancel a running grid: 202 ``cancelling``, then
        terminal ``cancelled`` once the fabric unwinds — and the points
        that completed first stay cached for an identical resubmission."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.experiments import runner

        runner.clear_memo()
        server, client = daemon()
        body = {"points": _slow_points()}
        status, payload, _ = client.request("POST", "/grid", body)
        assert status == 202
        job_id = payload["job"]["id"]
        _wait_first_result(server, job_id)

        status, payload, _ = client.request("DELETE", f"/jobs/{job_id}")
        assert status in (200, 202)  # 202 cancelling; 200 if it raced terminal
        final = client.wait_job(job_id, timeout=120.0)
        assert final["job"]["state"] == "cancelled"
        assert final["job"]["result"] is None
        assert final["error"]["kind"] == "job.cancelled"

        # The identical grid resubmits as a fresh job (no dedup against a
        # cancelled predecessor) and reuses every point that finished
        # before the stop — memo or disk hits, never a recompute.
        status, payload, _ = client.request("POST", "/grid", body)
        assert status == 202
        assert payload["job"]["id"] != job_id
        final = client.wait_job(payload["job"]["id"], timeout=300.0)
        assert final["job"]["state"] == "done"
        accounting = final["job"]["result"]["accounting"]
        assert accounting["memo_hits"] + accounting["disk_hits"] >= 1
        assert accounting["simulated"] < len(body["points"])

    def test_subprocess_backend_cancel_tears_down_nodes(
        self, daemon, tmp_path, monkeypatch
    ):
        """Cancel a running grid on the daemon's shared scheduler: the
        peers running the job's points are recycled (killed and respawned
        under a new generation), the scheduler stays open, and cached
        points survive for the next identical grid."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        from repro.experiments import runner

        runner.clear_memo()
        server, client = daemon(jobs=2)
        scheduler = server.service.scheduler

        body = {"points": _slow_points()}
        status, payload, _ = client.request("POST", "/grid", body)
        assert status == 202
        job_id = payload["job"]["id"]
        _wait_first_result(server, job_id, timeout=120.0)
        before = {slot.index: slot.peer.pid for slot in scheduler._slots}

        status, _, _ = client.request("DELETE", f"/jobs/{job_id}")
        assert status in (200, 202)
        final = client.wait_job(job_id, timeout=120.0)
        assert final["job"]["state"] == "cancelled"

        # Recycling, not teardown: every peer the job still occupied was
        # replaced by a live successor, and the scheduler keeps serving.
        recycled = [
            int(node)
            for node, entry in final["job"]["progress"]["nodes"].items()
            if entry.get("recycled")
        ]
        assert recycled, "no peer of the cancelled job was recycled"
        assert not scheduler._closed
        for index in recycled:
            peer = scheduler._slots[index].peer
            assert peer.pid != before[index]
            assert peer.process.poll() is None

        # Worker-side persistence: completed points were written to the
        # shared disk cache before the cancel, so the identical grid
        # reuses them.
        status, payload, _ = client.request("POST", "/grid", body)
        assert status == 202
        final = client.wait_job(payload["job"]["id"], timeout=300.0)
        assert final["job"]["state"] == "done"
        accounting = final["job"]["result"]["accounting"]
        assert accounting["memo_hits"] + accounting["disk_hits"] >= 1
