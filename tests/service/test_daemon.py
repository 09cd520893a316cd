"""Daemon lifecycle and the synchronous endpoints over real HTTP."""

from __future__ import annotations

import sys

import pytest

from repro.schemas import (
    SCHEMA_RUN,
    SCHEMA_SERVICE_METRICS,
    SCHEMA_SERVICE_STATUS,
    SCHEMA_TRACE,
    validate_envelope,
)


def test_status_and_metrics(daemon):
    """A freshly booted daemon introspects itself with valid envelopes."""
    _, client = daemon()
    status, payload, _ = client.request("GET", "/status")
    assert status == 200
    assert validate_envelope(payload)["schema"] == SCHEMA_SERVICE_STATUS
    service = payload["service"]
    assert service["pool"]["jobs"] >= 2
    assert service["jobs"] == {
        "queued": 0, "running": 0, "done": 0, "failed": 0, "cancelled": 0,
    }
    assert SCHEMA_RUN in service["schemas"]

    status, payload, _ = client.request("GET", "/metrics")
    assert status == 200
    assert validate_envelope(payload)["schema"] == SCHEMA_SERVICE_METRICS
    # the /status request above has already been observed
    assert payload["metrics"]["service.requests"]["data"] >= 1
    assert payload["latency"]["count"] >= 1


def test_zero_repro_jobs_is_rejected(monkeypatch):
    """``REPRO_JOBS=0`` (or negative) is a usage error everywhere since
    PR 5 — the daemon must raise, not silently reinterpret it as 2."""
    from repro.service.config import default_jobs

    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError, match="positive integer"):
        default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "-3")
    with pytest.raises(ValueError, match="positive integer"):
        default_jobs()
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert default_jobs() == 2  # the 2-worker floor still applies


def test_sync_run_round_trip(daemon):
    """``POST /run`` answers a ``repro.run/v1`` envelope from a pool worker."""
    _, client = daemon()
    status, payload, _ = client.request(
        "POST", "/run", {"benchmark": "compress", "mode": "V", "scale": 3_170}
    )
    assert status == 200
    assert validate_envelope(payload)["schema"] == SCHEMA_RUN
    assert payload["ok"] is True
    assert payload["point"]["benchmark"] == "compress"
    assert payload["stats"]["committed"] > 0


def test_sync_trace_round_trip(daemon):
    """``POST /trace`` answers a ``repro.trace/v1`` envelope with events."""
    _, client = daemon()
    status, payload, _ = client.request(
        "POST", "/trace",
        {"benchmark": "compress", "mode": "V", "scale": 2_130, "limit": 25},
    )
    assert status == 200
    assert validate_envelope(payload)["schema"] == SCHEMA_TRACE
    assert payload["ok"] is True
    assert 0 < len(payload["events"]) <= 25


def test_bad_requests_answer_400_envelopes(daemon):
    """Malformed bodies and invalid points map to 400 + repro.error/v1."""
    _, client = daemon()
    cases = [
        ("POST", "/run", b"", "request.malformed"),          # empty body
        ("POST", "/run", b"{not json", "request.malformed"),  # invalid JSON
        ("POST", "/run", b"[1, 2]", "request.malformed"),     # non-object
    ]
    for method, path, body, kind in cases:
        status, raw, _ = client.raw(method, path, body)
        import json

        payload = json.loads(raw)
        assert status == 400, payload
        info = validate_envelope(payload)
        assert info["name"] == "repro.error"
        assert payload["error"]["kind"] == kind

    status, payload, _ = client.request("POST", "/run", {"benchmark": "nope"})
    assert status == 400
    assert payload["error"]["kind"] == "benchmark.unknown"

    status, payload, _ = client.request(
        "POST", "/run", {"benchmark": "compress", "width": 7}
    )
    assert status == 400
    assert payload["error"]["kind"] == "request.invalid"


def test_unknown_routes_answer_404_envelopes(daemon):
    _, client = daemon()
    for method, path in (("GET", "/nope"), ("POST", "/nope")):
        status, payload, _ = client.request(
            method, path, {} if method == "POST" else None
        )
        assert status == 404
        assert validate_envelope(payload)["name"] == "repro.error"
        assert payload["error"]["kind"] == "http.not_found"

    status, payload, _ = client.request("GET", "/jobs/doesnotexist")
    assert status == 404
    assert payload["error"]["kind"] == "job.unknown"


def test_shutdown_is_clean(daemon):
    """Booting and tearing down leaves no stuck threads (the fixture
    joins the job workers; a hang here fails the test run)."""
    server, client = daemon()
    status, _, _ = client.request("GET", "/status")
    assert status == 200
    server.shutdown()
    server.server_close()
    server.service.shutdown()


def test_service_takes_over_a_warmup_started_before_it(tmp_path, monkeypatch):
    """Peers spawned and warming before the service exists (the CLI's
    peers-first start) are the service's peers, and all report warmed."""
    import threading

    from repro.service.config import ServiceConfig, start_peers
    from repro.service.server import SimulationService, build_server

    from .conftest import DaemonClient

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    config = ServiceConfig(port=0, jobs=2, warm_benchmarks=("compress",), warm_scale=1500)
    scheduler, warmup = start_peers(config)
    service = SimulationService(config, scheduler, warmup)
    server = build_server(config, service)
    try:
        assert server.service is service and service.scheduler is scheduler
        assert service.warm() == 2
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = DaemonClient(*server.server_address[:2])
        status, payload, _ = client.request("GET", "/metrics")
        assert status == 200
        assert payload["metrics"]["service.workers_warmed"]["data"] == 2
        assert scheduler.restarts == 0
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()


def _processes_with(marker: str) -> list:
    """Pids of live processes whose environment holds ``marker``."""
    import pathlib

    pids = []
    for environ in pathlib.Path("/proc").glob("[0-9]*/environ"):
        try:
            if marker.encode() in environ.read_bytes().split(b"\0"):
                pids.append(int(environ.parent.name))
        except OSError:
            pass  # gone, or not ours
    return pids


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_serve_on_a_busy_port_exits_nonzero_and_leaves_no_peer(tmp_path):
    """The peers spawn before the bind; a failed bind must shut them down."""
    import os
    import socket
    import subprocess
    import uuid

    marker = f"REPRO_TEST_MARK={uuid.uuid4().hex}"
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
    env["REPRO_TEST_MARK"] = marker.split("=", 1)[1]
    # A file, not a pipe: peers inherit stderr, and reading a pipe to its
    # end would wait for any peer left behind to exit on its own.
    stderr = tmp_path / "serve.err"
    with socket.socket() as busy, stderr.open("w") as err:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        code = subprocess.call(
            [sys.executable, "-m", "repro", "serve", "--port",
             str(busy.getsockname()[1]), "--jobs", "2",
             "--warm-benchmarks", "compress"],
            env=env, stdout=subprocess.DEVNULL, stderr=err, timeout=120,
        )
    assert _processes_with(marker) == []
    assert code != 0
    text = stderr.read_text()
    assert "serve:" in text and "listening" not in text
