"""Resuming a killed sweep is rerunning it.

Every finished grid point is written to the disk cache's ``stats/``
section atomically, and :func:`repro.experiments.parallel.run_grid`
consults the cache before it dispatches anything.  So a ``figures``
process killed mid-grid needs no manifest: the same command, run again,
recovers the points that finished and simulates only the rest.

The kill here is real — an env-armed ``crash`` fault ``os._exit``\\ s the
CLI process (``--jobs 1`` computes in-process, so the crash takes the
CLI down with it rather than a respawnable worker peer).  The rerun's
figure rows must equal those of one clean, uninterrupted run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

CRASH_ON_LI = [
    {"site": "grid.point", "match": {"benchmark": "li"}, "action": "crash"},
]


def _figures(cache_dir, faults=None):
    """One ``figures --only fig14`` CLI run in a fresh process."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env.pop("REPRO_NO_DISK_CACHE", None)
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = json.dumps(faults)
    return subprocess.run(
        [sys.executable, "-m", "repro", "figures", "--only", "fig14",
         "--scale", "2000", "--jobs", "1", "--json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_rerun_after_a_kill_recovers_finished_points(tmp_path):
    cache = tmp_path / "cache"
    killed = _figures(cache, faults=CRASH_ON_LI)
    assert killed.returncode != 0, killed.stdout
    k = len(list((cache / "stats").glob("*.json")))
    assert k > 0  # li is not the first benchmark fig14 visits

    rerun = _figures(cache)
    assert rerun.returncode == 0, rerun.stderr
    payload = json.loads(rerun.stdout)
    assert payload["ok"], payload["error"]
    grid = payload["grid"]
    assert grid["disk_hits"] == k
    assert grid["simulated"] == grid["unique"] - k

    clean = _figures(tmp_path / "clean-cache")
    assert clean.returncode == 0, clean.stderr
    assert payload["figures"] == json.loads(clean.stdout)["figures"]
