"""Fixtures for the service-daemon suite: a real in-process daemon.

The daemon boots on an ephemeral port (``port=0``) with small limits so
every test exercises the actual HTTP stack — routing, envelopes, status
codes, headers — not a mocked transport.  Teardown stops the HTTP loop,
the job workers and the worker peers.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.service import ServiceConfig
from repro.service.server import build_server


class DaemonClient:
    """A tiny JSON HTTP client against one daemon instance."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def request(self, method: str, path: str, body=None, timeout: float = 60.0):
        """Returns ``(status, payload, headers)`` for one JSON exchange."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request(
                method, path,
                json.dumps(body) if body is not None else None,
                {"Content-Type": "application/json"} if body is not None else {},
            )
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        return response.status, json.loads(raw), dict(response.getheaders())

    def raw(self, method: str, path: str, body: bytes = b"", timeout: float = 60.0):
        """An exchange with a non-JSON request body (malformed-input tests)
        or a non-JSON response body (NDJSON streams)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request(method, path, body or None)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        return response.status, raw, dict(response.getheaders())

    def wait_job(self, job_id: str, timeout: float = 60.0) -> dict:
        """Poll ``GET /jobs/<id>`` until the job is terminal."""
        deadline = time.monotonic() + timeout
        while True:
            status, payload, _ = self.request("GET", f"/jobs/{job_id}")
            assert status in (200, 500), payload
            if payload["job"]["state"] in ("done", "failed", "cancelled"):
                return payload
            if time.monotonic() > deadline:
                raise AssertionError(f"job {job_id} not terminal: {payload}")
            time.sleep(0.05)


@pytest.fixture
def daemon():
    """Factory: ``boot(**ServiceConfig kwargs) -> (server, DaemonClient)``."""
    servers = []

    def boot(**kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("jobs", 2)
        config = ServiceConfig(**kwargs)
        server = build_server(config)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        host, port = server.server_address[:2]
        return server, DaemonClient(host, port)

    yield boot
    for server in servers:
        server.shutdown()
        server.server_close()
        server.service.shutdown()
