"""Fault containment: a poisoned request fails structurally, the daemon
keeps serving.

``REPRO_FAULTS`` is set in the daemon's environment before the worker
peers spawn, so the injected crash fires inside a peer *process* — the
fabric's retry/quarantine machinery turns it into a ``repro.error/v1``
response while the HTTP front and every other benchmark stay healthy.
"""

from __future__ import annotations

import json
import time

from repro.schemas import SCHEMA_RUN, validate_envelope


def test_poisoned_request_is_contained(daemon, monkeypatch):
    monkeypatch.setenv(
        "REPRO_FAULTS",
        json.dumps(
            [{"site": "grid.point", "action": "crash", "match": {"benchmark": "go"}}]
        ),
    )
    _, client = daemon(max_retries=1)

    # the poisoned benchmark: its workers crash, the fabric exhausts the
    # retry budget and quarantines the point into an error envelope
    status, payload, _ = client.request(
        "POST", "/run", {"benchmark": "go", "mode": "V", "scale": 3_510},
        timeout=120.0,
    )
    assert status == 500
    info = validate_envelope(payload)
    assert info["name"] == "repro.error"
    assert payload["ok"] is False
    assert payload["error"]["kind"] == "node.lost"
    assert payload["error"]["point"]["benchmark"] == "go"

    # a healthy benchmark on the same daemon still serves
    status, payload, _ = client.request(
        "POST", "/run", {"benchmark": "compress", "mode": "V", "scale": 3_511},
        timeout=120.0,
    )
    assert status == 200
    assert validate_envelope(payload)["schema"] == SCHEMA_RUN

    # the daemon is alive and recorded the peer respawns
    status, payload, _ = client.request("GET", "/status")
    assert status == 200
    assert payload["service"]["pool"]["restarts"] >= 1


def test_poisoned_requests_leave_a_running_job_its_peers(daemon, monkeypatch):
    """Poisoned ``/run`` requests strike out peers for themselves only: a
    grid job running at the same time on the same daemon completes."""
    monkeypatch.setenv(
        "REPRO_FAULTS",
        json.dumps([
            {"site": "grid.point", "action": "crash", "match": {"benchmark": "li"}},
            # slow healthy points keep the job running under both requests
            {"site": "grid.point", "action": "hang", "match": {"mode": "noIM"},
             "delay": 0.5},
        ]),
    )
    _, client = daemon(jobs=2)
    healthy = ("compress", "go", "swim", "perl", "ijpeg",
               "m88ksim", "applu", "vortex", "gcc", "turb3d")
    status, payload, _ = client.request("POST", "/grid", {"points": [
        {"benchmark": name, "width": 4, "ports": 1, "mode": "noIM", "scale": 1_500}
        for name in healthy
    ]})
    assert status == 202
    job_id = payload["job"]["id"]
    while True:
        status, payload, _ = client.request("GET", f"/jobs/{job_id}")
        nodes = payload["job"].get("progress", {}).get("nodes", {})
        if any(entry["completed"] for entry in nodes.values()):
            break
        assert payload["job"]["state"] in ("queued", "running"), payload
        time.sleep(0.05)

    for scale in (3_520, 3_521):
        status, payload, _ = client.request(
            "POST", "/run", {"benchmark": "li", "mode": "V", "scale": scale},
            timeout=120.0,
        )
        assert status == 500
        assert payload["error"]["kind"] == "node.lost"

    final = client.wait_job(job_id, timeout=120.0)
    assert final["job"]["state"] == "done"
    result = final["job"]["result"]
    assert result["ok"], result
    assert "nodes_lost" not in result["accounting"]  # only present when nonzero
    assert not any(node["quarantined"] for node in result["accounting"]["nodes"])
