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

import email.utils
import http.client
import itertools
import json
import socket
import sys
import threading

import pytest

from repro.schemas import validate_envelope
from repro.service import server as server_module


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


BODY = json.dumps(POINT).encode()


def _post_run(*fields: bytes, body: bytes = BODY) -> bytes:
    """A raw ``POST /run`` with the given header lines and body."""
    return (
        b"POST /run HTTP/1.1\r\nHost: localhost\r\n"
        + b"".join(field + b"\r\n" for field in fields)
        + b"\r\n"
        + body
    )


def _read_response(sock):
    """One framed response from ``sock``: ``(status, [(name, value)...],
    body)``, the body read to its ``Content-Length``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65_536)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    fields = [tuple(line.split(": ", 1)) for line in lines]
    length = int(dict(fields)["Content-Length"])
    while len(body) < length:
        chunk = sock.recv(65_536)
        assert chunk, "connection closed mid-body"
        body += chunk
    assert len(body) == length, "bytes past the Content-Length"
    return int(status_line.split()[1]), fields, body


def _read_to_eof(sock) -> bytes:
    data = b""
    while True:
        chunk = sock.recv(65_536)
        if not chunk:
            return data
        data += chunk


def _closed(sock) -> bool:
    """Whether the daemon ends the connection (EOF or reset) within the
    socket timeout, with no byte past the last response."""
    try:
        return sock.recv(65_536) == b""
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


def _exchange_raw(client, request: bytes):
    """Send ``request`` on a fresh connection: its one response and
    whether the daemon then closed the connection."""
    with socket.create_connection((client.host, client.port), timeout=10) as sock:
        sock.sendall(request)
        response = _read_response(sock)
        return response, _closed(sock)


def _assert_error(response, status: int, kind: str) -> dict:
    got, fields, body = response
    assert got == status, body
    headers = dict(fields)
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    payload = json.loads(body)
    validate_envelope(payload)
    assert payload["error"]["kind"] == kind, payload
    return payload


_HEAD = b"GET /status HTTP/1.1\r\nHost: localhost\r\n"


class TestFraming:
    """The daemon parses request heads itself, under ``http.server``'s
    limits, and answers every framing error with a ``repro.error/v1``
    envelope and ``Connection: close``."""

    def test_chunked_body_answers_400_and_closes(self, daemon):
        """Chunked bodies are not supported: reading the chunk-size line
        as a request of its own would desynchronize the connection."""
        _, client = daemon()
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(BODY), BODY)
        response, closed = _exchange_raw(
            client, _post_run(b"Transfer-Encoding: chunked", body=chunked)
        )
        payload = _assert_error(response, 400, "request.malformed")
        assert "Transfer-Encoding" in payload["error"]["message"]
        assert closed
        assert client.request("GET", "/status")[0] == 200

    def test_conflicting_content_length_answers_400_and_closes(self, daemon):
        _, client = daemon()
        response, closed = _exchange_raw(
            client,
            _post_run(b"Content-Length: 5", b"Content-Length: %d" % len(BODY)),
        )
        payload = _assert_error(response, 400, "request.malformed")
        assert "Content-Length" in payload["error"]["message"]
        assert closed

    def test_identical_content_length_duplicates_pass(self, daemon):
        _, client = daemon()
        length = b"Content-Length: %d" % len(BODY)
        with socket.create_connection((client.host, client.port), timeout=60) as sock:
            sock.sendall(_post_run(length, length))
            status, _, body = _read_response(sock)
            assert status == 200, body
            assert json.loads(body)["ok"] is True
            # The connection stays usable: the body was consumed exactly.
            sock.sendall(_HEAD + b"\r\n")
            assert _read_response(sock)[0] == 200

    @pytest.mark.parametrize(
        "request_bytes, status, kind",
        [
            (b"PUT /run HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501,
             "http.not_implemented"),
            (b"DELETE /run HTTP/2.0\r\n\r\n", 505, "request.malformed"),
            (b"GET /status HTTP/1.x\r\n\r\n", 400, "request.malformed"),
            (b"GET /status extra HTTP/1.1\r\n\r\n", 400, "request.malformed"),
            # a 65 537-byte request line and header line, nothing after
            # them: the daemon reads exactly what was sent before it answers
            (b"GET /" + b"a" * (65_537 - 5), 414, "request.malformed"),
            (_HEAD + b"X-Big: " + b"a" * (65_537 - 7), 431, "request.malformed"),
            (_HEAD + b"".join(b"X-%d: v\r\n" % i for i in range(101)) + b"\r\n",
             431, "request.malformed"),
            # http.server counts the blank line against its 100-line limit
            (_HEAD + b"".join(b"X-%d: v\r\n" % i for i in range(99)) + b"\r\n",
             431, "request.malformed"),
            (_HEAD + b"X-Folded: a\r\n b\r\n\r\n", 400, "request.malformed"),
            (b"GET /status HTTP/1.1\r\nHost : localhost\r\n\r\n", 400,
             "request.malformed"),
            (_HEAD + b"no colon here\r\n\r\n", 400, "request.malformed"),
        ],
        ids=[
            "put", "http2", "bad-version", "four-words", "long-request-line",
            "long-header-line", "101-headers", "100-fields", "obs-fold",
            "space-before-colon", "no-colon",
        ],
    )
    def test_framing_error_is_an_envelope(self, daemon, request_bytes, status, kind):
        _, client = daemon()
        response, closed = _exchange_raw(client, request_bytes)
        _assert_error(response, status, kind)
        assert closed
        assert client.request("GET", "/status")[0] == 200

    def test_header_limit_boundary_passes(self, daemon):
        """98 fields plus ``Host`` and the blank line: 100 lines, the most
        ``http.server`` accepts."""
        _, client = daemon()
        extra = b"".join(b"X-%d: v\r\n" % i for i in range(98))
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(_HEAD + extra + b"\r\n")
            status, fields, _ = _read_response(sock)
        assert status == 200
        assert "Connection" not in dict(fields)

    def test_expect_100_continue_before_the_body(self, daemon):
        _, client = daemon()
        head = _post_run(
            b"Expect: 100-continue", b"Content-Length: %d" % len(BODY), body=b""
        )
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)  # a timeout here: no 100 was sent
                assert chunk
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.settimeout(60)
            sock.sendall(BODY)
            status, _, body = _read_response(sock)
        assert status == 200, body
        assert json.loads(body)["ok"] is True

    @pytest.mark.parametrize(
        "request_bytes",
        [
            _HEAD + b"Connection: close\r\n\r\n",
            b"GET /status HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_close_after_the_answer(self, daemon, request_bytes):
        _, client = daemon()
        (status, fields, body), closed = _exchange_raw(client, request_bytes)
        assert status == 200, body
        assert dict(fields)["Connection"] == "close"
        assert closed

    def test_head_gets_the_head_alone(self, daemon):
        """``HEAD`` has no handler: its 501 carries no body."""
        _, client = daemon()
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(b"HEAD /status HTTP/1.1\r\nHost: localhost\r\n\r\n")
            raw = _read_to_eof(sock)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 "), raw
        assert b"\r\nConnection: close" in head
        assert body == b""

    def test_http_0_9_gets_the_body_alone(self, daemon):
        _, client = daemon()
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            # http.server reads a header block after an HTTP/0.9 line too
            sock.sendall(b"GET /status\r\n\r\n")
            raw = _read_to_eof(sock)
        assert validate_envelope(json.loads(raw))["name"] == "repro.service.status"

    def test_http_1_0_keep_alive_stays_open(self, daemon):
        _, client = daemon()
        with socket.create_connection((client.host, client.port), timeout=2) as sock:
            sock.sendall(b"GET /status HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            status, fields, _ = _read_response(sock)
            assert status == 200
            assert "Connection" not in dict(fields)
            assert not _closed(sock)

    def test_response_heads_keep_the_stdlib_field_order(self, daemon):
        """A ``200`` memo hit and a ``503`` carry the fields
        ``http.server`` sent, in its order, on one kept-alive connection."""
        server, client = daemon(sync_limit=1)
        assert client.request("POST", "/run", POINT)[0] == 200
        request = _post_run(b"Content-Length: %d" % len(BODY))
        with socket.create_connection((client.host, client.port), timeout=60) as sock:
            sock.sendall(request)
            status, fields, body = _read_response(sock)
            assert status == 200, body
            names = [name for name, _ in fields]
            assert names == ["Server", "Date", "Content-Type", "Content-Length"]
            headers = dict(fields)
            assert headers["Server"].startswith("repro-serve/1 Python/")
            assert headers["Date"].endswith(" GMT")
            assert int(headers["Content-Length"]) == len(body)
            slots = server.service._sync_slots
            assert slots.acquire(blocking=False)  # saturate the one slot
            try:
                sock.sendall(request)
                status, fields, body = _read_response(sock)
            finally:
                slots.release()
        assert status == 503, body
        assert [name for name, _ in fields] == [
            "Server", "Date", "Content-Type", "Content-Length", "Retry-After",
        ]
        assert int(dict(fields)["Retry-After"]) >= 1


def test_date_cache_never_pairs_one_second_with_another(monkeypatch):
    """Threads swapping the cached ``Date`` every few calls each read the
    text of a second that passed during their call."""
    ticks = itertools.count()

    class Clock:
        @staticmethod
        def time():
            return next(ticks) / 3  # a new second every third reading

    monkeypatch.setattr(server_module, "time", Clock)
    results = []

    def worker():
        seen = []
        for _ in range(2_000):
            before = int(Clock.time())
            value = server_module._http_date()
            seen.append((before, value, int(Clock.time())))
        results.extend(seen)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8 * 2_000
    for before, value, after in results:
        assert value in {
            email.utils.formatdate(second, usegmt=True).encode()
            for second in range(before, after + 1)
        }


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
