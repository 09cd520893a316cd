"""The ``serve`` daemon end to end: real processes on real ports.

    PYTHONPATH=src python -m pytest smoke/test_service.py

Each check boots its own daemon through the ``serve`` fixture, which
also sees that no worker peer outlives it.  Request framing and the
``/run`` answer memo are checked in-process by
``tests/service/test_connection.py``.
"""

from __future__ import annotations

import http.client
import json
import re

from repro.schemas import validate_envelope


def test_a_poisoned_request_answers_an_error_and_the_daemon_serves_on(serve):
    # The injected crash is quarantined into a 500 repro.error/v1 envelope
    # while the daemon keeps serving healthy requests on the same port.
    fault = [{"site": "grid.point", "action": "crash", "match": {"benchmark": "go"}}]
    daemon = serve("--no-warm", "--max-retries", "1", REPRO_FAULTS=json.dumps(fault))
    status, payload, _ = daemon.client.request("GET", "/status")
    assert status == 200, payload
    assert validate_envelope(payload)["name"] == "repro.service.status"
    status, poisoned, _ = daemon.client.request(
        "POST", "/run", {"benchmark": "go", "scale": 3000})
    assert status == 500, poisoned
    assert validate_envelope(poisoned)["name"] == "repro.error"
    assert poisoned["error"]["kind"] == "node.lost", poisoned
    status, healthy, _ = daemon.client.request(
        "POST", "/run", {"benchmark": "compress", "scale": 3000})
    assert status == 200, healthy
    assert validate_envelope(healthy)["name"] == "repro.run"
    assert healthy["ok"], healthy


def test_warm_boot_peers_first_busy_port_no_peer_left_behind(serve, tmp_path):
    # `serve` spawns its worker peers before it imports its HTTP front and
    # listens only once every peer has answered its warm frame.
    cache = tmp_path / "cache"
    daemon = serve("--jobs", "2", "--warm-benchmarks", "compress", "swim",
                   timeout=120, REPRO_CACHE_DIR=str(cache))
    lines = daemon.stderr().splitlines()
    warmed = [i for i, line in enumerate(lines) if "warmed 2 worker peer(s)" in line]
    listening = [i for i, line in enumerate(lines) if "listening on" in line]
    assert warmed and listening and warmed[0] < listening[0], lines
    # Peers build their traces in memory: nothing goes to disk.
    assert not (cache / "traces").exists()
    assert not (cache / "soa").exists()
    # Each peer warmed its own share and holds that trace, so a compress
    # point runs on node 0 and a swim point on node 1.
    for name, node in (("compress", "0"), ("swim", "1")):
        status, accepted, _ = daemon.client.request(
            "POST", "/grid", {"points": [{"benchmark": name, "scale": 12000}]})
        assert status in (200, 202), accepted
        job = daemon.client.wait_job(accepted["job"]["id"])["job"]
        assert job["state"] == "done", job
        nodes = job["progress"]["nodes"]
        completed = {n: entry["completed"] for n, entry in nodes.items()}
        assert completed.get(node) == 1 and sum(completed.values()) == 1, (name, nodes)
    # A second daemon on the taken port exits non-zero and takes its own
    # peers down; only the first daemon's two peers are left.
    second = serve("--port", str(daemon.port), "--jobs", "2",
                   "--warm-benchmarks", "compress", listen=False,
                   REPRO_CACHE_DIR=str(cache))
    assert second.process.returncode != 0, second.stderr()
    assert re.search(r"serve: .*in use", second.stderr()), second.stderr()
    assert second.peers() == []
    assert len(daemon.peers()) == 2
    # At teardown the `serve` fixture kills this daemon and sees both
    # peers exit.


def test_keep_alive_and_cancel(serve):
    # Consecutive requests ride one TCP connection (HTTP/1.1 keep-alive).
    daemon = serve("--no-warm")
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
    try:
        sockets = set()
        for path in ("/status", "/metrics", "/status"):
            conn.request("GET", path)
            response = conn.getresponse()
            assert response.status == 200
            validate_envelope(json.loads(response.read()))
            sockets.add(conn.sock.getsockname())
        assert len(sockets) == 1, sockets
    finally:
        conn.close()
    # DELETE /jobs/<id> drives a running grid to a terminal `cancelled`
    # job with a job.cancelled error.
    points = [{"benchmark": name, "scale": 200000} for name in ("compress", "go", "li")]
    status, accepted, _ = daemon.client.request("POST", "/grid", {"points": points})
    job_id = accepted["job"]["id"]
    status, cancel, _ = daemon.client.request("DELETE", f"/jobs/{job_id}")
    assert status in (200, 202), cancel
    assert validate_envelope(cancel)["schema"] == "repro.service.job/v2"
    final = daemon.client.wait_job(job_id, timeout=30)
    assert final["job"]["state"] == "cancelled", final["job"]["state"]
    assert final["error"]["kind"] == "job.cancelled", final["error"]
