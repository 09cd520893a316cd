"""The daemon's worker peers: async grid jobs route through the shared
scheduler's peers, ``/jobs/<id>`` reports per-node progress, and an
injected node crash is absorbed without the client noticing anything but
the accounting.
"""

from __future__ import annotations

import json

import pytest


POINT = {"benchmark": "compress", "width": 4, "ports": 1, "mode": "V"}
SCALE = 1_500


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    from repro.experiments import runner

    runner.clear_memo()
    yield
    runner.clear_memo()


def _grid_body():
    return {
        "points": [
            {**POINT, "benchmark": bench, "mode": mode, "scale": SCALE}
            for bench in ("compress", "go")
            for mode in ("noIM", "V")
        ]
    }


def test_grid_job_runs_on_subprocess_backend(daemon, fresh_cache):
    _, client = daemon(jobs=2)
    status, payload, _ = client.request("POST", "/grid", _grid_body())
    assert status == 202
    final = client.wait_job(payload["job"]["id"])
    assert final["job"]["state"] == "done"
    result = final["job"]["result"]
    assert result["ok"], result
    accounting = result["accounting"]
    assert accounting["jobs"] == 2
    assert accounting["simulated"] == 4
    # Per-node progress survives onto the terminal job envelope.
    nodes = final["job"]["progress"]["nodes"]
    assert set(nodes) == {"0", "1"}
    assert sum(entry["completed"] for entry in nodes.values()) == 4
    assert all(entry["state"] == "up" for entry in nodes.values())


def test_node_crash_under_the_daemon_is_reassigned(
    daemon, fresh_cache, monkeypatch
):
    monkeypatch.setenv(
        "REPRO_FAULTS",
        json.dumps([
            {
                "site": "node.crash",
                "action": "crash",
                "match": {"node": 0, "generation": 0},
            }
        ]),
    )
    _, client = daemon(jobs=2)
    status, payload, _ = client.request("POST", "/grid", _grid_body())
    assert status == 202
    final = client.wait_job(payload["job"]["id"])
    assert final["job"]["state"] == "done"
    result = final["job"]["result"]
    assert result["ok"], result
    assert result["accounting"]["nodes_lost"] == 1
    assert result["accounting"]["points_reassigned"] == 1
    nodes = final["job"]["progress"]["nodes"]
    assert nodes["0"]["lost"] == 1
    assert nodes["0"]["state"] == "up"  # respawned generation finished up
