"""Fault containment on the command line.

    PYTHONPATH=src python -m pytest smoke/test_faults.py
"""

from __future__ import annotations

import json

from conftest import repro

FIG14 = ("figures", "--only", "fig14", "--scale", "2000", "--jobs", "2")


def test_failed_point_exits_1_and_the_rest_is_salvaged(tmp_path):
    # A persistently failing point must leave every other point's result
    # intact, be reported per point on stderr, and exit 1.
    cache = {"REPRO_CACHE_DIR": str(tmp_path / "cache")}
    fault = [{"site": "grid.point", "match": {"benchmark": "li"}, "action": "raise"}]
    failed = repro(*FIG14, "--max-retries", "1", status=1,
                   REPRO_FAULTS=json.dumps(fault), **cache)
    assert "grid point FAILED: li" in failed.stderr
    assert "1 FAILED" in failed.stderr
    # The salvaged points are cached: a clean rerun recovers all of them
    # from disk and simulates only the failed one.
    payload = json.loads(repro(*FIG14, "--json", **cache).stdout)
    assert payload["ok"], payload.get("error")
    grid = payload["grid"]
    assert grid["disk_hits"] == grid["unique"] - 1, grid
    assert grid["simulated"] == 1, grid
