"""The connection layer: HTTP/1.1 keep-alive framing and per-point
result streaming.

Keep-alive is a *framing* contract — every JSON response carries
``Content-Length`` and every consumed request body is read to its end —
so these tests drive several requests (including error paths and bodied
POSTs that 404) over **one** ``http.client.HTTPConnection`` and assert
the socket is never replaced.  The NDJSON event stream is the deliberate
exception and must keep answering ``Connection: close``.
"""

from __future__ import annotations

import http.client
import json

from repro.schemas import validate_envelope


POINT = {"benchmark": "compress", "mode": "V", "scale": 2_100}


def _exchange(conn, method, path, body=None):
    """One request/response on an already-open connection: the response,
    its parsed JSON body and the raw body bytes."""
    conn.request(
        method, path,
        json.dumps(body) if body is not None else None,
        {"Content-Type": "application/json"} if body is not None else {},
    )
    response = conn.getresponse()
    raw = response.read()
    return response, json.loads(raw), raw


class TestKeepAlive:
    def test_many_requests_one_connection(self, daemon):
        """>= 3 requests — GET, POST, and an error path — ride one TCP
        connection; the server never closes it between responses."""
        _, client = daemon()
        conn = http.client.HTTPConnection(client.host, client.port, timeout=60)
        try:
            sockets = []
            run_bodies = []
            exchanges = [
                ("GET", "/status", None, 200),
                ("POST", "/run", POINT, 200),
                ("GET", "/metrics", None, 200),
                ("GET", "/jobs/nope", None, 404),        # error envelope
                ("POST", "/run", POINT, 200),            # memo hit after error
            ]
            for method, path, body, want in exchanges:
                response, payload, raw = _exchange(conn, method, path, body)
                assert response.status == want, payload
                assert response.version == 11
                validate_envelope(payload)
                # Framed response: Content-Length present, no close.
                assert response.getheader("Content-Length") is not None
                assert (response.getheader("Connection") or "").lower() != "close"
                sockets.append(conn.sock)
                if path == "/run":
                    run_bodies.append(raw)
            # http.client only reuses the socket if the server kept it
            # open — a close would make it reconnect (new socket object).
            assert all(sock is sockets[0] for sock in sockets), (
                "connection was re-established mid-sequence"
            )
            # The memo hit answers with exactly the bytes of the first run.
            first, hit = run_bodies
            assert hit == first
        finally:
            conn.close()

    def test_unknown_post_body_is_drained(self, daemon):
        """A bodied POST to an unknown route must not poison the framing:
        the next request on the same connection still parses."""
        _, client = daemon()
        conn = http.client.HTTPConnection(client.host, client.port, timeout=60)
        try:
            response, payload, _ = _exchange(
                conn, "POST", "/no/such/route", {"filler": "x" * 2048}
            )
            assert response.status == 404
            assert payload["error"]["kind"] == "http.not_found"
            sock = conn.sock
            response, payload, _ = _exchange(conn, "GET", "/status", None)
            assert response.status == 200
            assert conn.sock is sock
        finally:
            conn.close()

    def test_event_stream_closes_connection(self, daemon):
        """The NDJSON stream is unframed: it must answer
        ``Connection: close`` (and actually end the connection)."""
        _, client = daemon()
        status, payload, _ = client.request("POST", "/grid", {"points": [POINT]})
        assert status == 202
        job_id = payload["job"]["id"]
        conn = http.client.HTTPConnection(client.host, client.port, timeout=60)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            assert response.status == 200
            assert (response.getheader("Connection") or "").lower() == "close"
            body = response.read()  # EOF-delimited: read() returning is the test
            lines = [json.loads(line) for line in body.splitlines()]
            assert lines[-1]["schema"].startswith("repro.service.job/")
        finally:
            conn.close()


class TestResultStreaming:
    def test_per_point_results_stream_before_terminal(self, daemon):
        """``?results=1``: every grid point's ``repro.run/v1`` envelope
        arrives as a ``point.result`` event *before* the terminal job
        envelope, so a client consumes the grid incrementally."""
        _, client = daemon()
        points = [
            {"benchmark": "compress", "mode": mode, "width": width, "scale": 2_200}
            for mode in ("noIM", "V")
            for width in (4, 8)
        ]
        status, payload, _ = client.request("POST", "/grid", {"points": points})
        assert status == 202
        job_id = payload["job"]["id"]
        status, raw, headers = client.raw(
            "GET", f"/jobs/{job_id}/events?results=1", timeout=120.0
        )
        assert status == 200
        lines = [json.loads(line) for line in raw.splitlines()]
        terminal_at = next(
            i for i, line in enumerate(lines)
            if line["schema"].startswith("repro.service.job/")
        )
        results = [
            line for line in lines
            if line["schema"] == "repro.service.event/v1"
            and line["event"]["kind"] == "point.result"
        ]
        assert len(results) == len(points)
        # Incremental delivery: every per-point envelope precedes the
        # terminal job envelope (which is the last line).
        assert terminal_at == len(lines) - 1
        assert all(
            lines.index(line) < terminal_at for line in results
        )
        for line in results:
            run = line["event"]["result"]
            assert validate_envelope(run)["name"] == "repro.run"
            assert run["ok"] is True
        streamed = {
            (line["event"]["result"]["point"]["benchmark"],
             line["event"]["result"]["point"]["mode"],
             line["event"]["result"]["point"]["width"])
            for line in results
        }
        assert streamed == {
            (p["benchmark"], p["mode"], p["width"]) for p in points
        }

    def test_results_filtered_without_toggle(self, daemon):
        """Without ``?results=1`` the stream stays progress-only: no
        ``point.result`` payloads on the wire."""
        _, client = daemon()
        status, payload, _ = client.request(
            "POST", "/grid",
            {"points": [{"benchmark": "compress", "mode": "noIM", "scale": 2_300}]},
        )
        assert status == 202
        status, raw, _ = client.raw(
            "GET", f"/jobs/{payload['job']['id']}/events", timeout=120.0
        )
        assert status == 200
        lines = [json.loads(line) for line in raw.splitlines()]
        kinds = [
            line["event"]["kind"] for line in lines
            if line["schema"] == "repro.service.event/v1"
        ]
        assert "point.result" not in kinds
        assert "job.done" in kinds
