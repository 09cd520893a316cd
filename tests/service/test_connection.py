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
import socket

import pytest

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


def _metric(client, name):
    status, payload, _ = client.request("GET", "/metrics")
    assert status == 200
    return payload["metrics"][name]["data"]


class TestContentLength:
    """A ``Content-Length`` that is not a non-negative integer loses the
    framing: the daemon answers ``400`` and closes the connection rather
    than failing with ``500`` or blocking on ``read(-1)``."""

    @pytest.mark.parametrize("path", ["/run", "/no/such/route"])
    @pytest.mark.parametrize("length", ["-1", "abc", "1_0", "+3"])
    def test_invalid_length_answers_400_and_closes(self, daemon, path, length):
        _, client = daemon()
        request = (
            f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
        ).encode()
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(request)
            raw = b""
            while True:  # EOF is the test: the daemon closed the connection
                chunk = sock.recv(65_536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0].split()[1] == "400", raw
        assert "Connection: close" in lines[1:]
        payload = json.loads(body)
        validate_envelope(payload)
        assert payload["error"]["kind"] == "request.malformed"
        # The daemon itself is unharmed.
        assert client.request("GET", "/status")[0] == 200


class TestAnswerMemo:
    """A ``/run`` point answered ``200`` once is answered again with the
    same bytes, counted by ``service.answer_hits``."""

    def test_reordered_and_defaulted_fields_share_one_answer(self, daemon):
        _, client = daemon()
        bodies = [
            POINT,
            {"scale": 2_100, "benchmark": "compress"},
            {
                "block_on_scalar_operand": True, "ports": 1, "width": 4,
                "scale": 2_100, "mode": "V", "benchmark": "compress",
            },
        ]
        answers = []
        for body in bodies:
            status, raw, _ = client.raw("POST", "/run", json.dumps(body).encode())
            assert status == 200, raw
            answers.append(raw)
        assert answers[1] == answers[0] and answers[2] == answers[0]
        assert _metric(client, "service.answer_hits") == 2
        # A different point is a different answer, not a hit.
        status, raw, _ = client.raw(
            "POST", "/run", json.dumps({**POINT, "ports": 2}).encode()
        )
        assert status == 200 and raw != answers[0]
        assert _metric(client, "service.answer_hits") == 2

    def test_invalid_body_answers_400_before_any_lookup(self, daemon):
        _, client = daemon()
        status, _, _ = client.request("POST", "/run", POINT)
        assert status == 200
        # Each equals (and hashes like) the answered point once coerced.
        for bad in ({**POINT, "ports": True}, {**POINT, "scale": 2_100.0},
                    {**POINT, "width": 4.0}, {**POINT, "typo_key": 1}):
            status, payload, _ = client.request("POST", "/run", bad)
            assert status == 400, (bad, payload)
            assert payload["error"]["kind"] == "request.invalid"
        assert _metric(client, "service.answer_hits") == 0

    def test_a_hit_still_takes_a_sync_slot(self, daemon):
        server, client = daemon(sync_limit=1)
        status, first, _ = client.request("POST", "/run", POINT)
        assert status == 200
        slots = server.service._sync_slots
        assert slots.acquire(blocking=False)  # saturate the one slot
        try:
            status, payload, headers = client.request("POST", "/run", POINT)
        finally:
            slots.release()
        assert status == 503
        assert payload["error"]["kind"] == "saturated"
        assert int(headers["Retry-After"]) >= 1
        status, payload, _ = client.request("POST", "/run", POINT)
        assert status == 200 and payload == first
        assert _metric(client, "service.answer_hits") == 1


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
