"""Worker-peer loss and a killed run, from the command line.

    PYTHONPATH=src python -m pytest smoke/test_distributed.py
"""

from __future__ import annotations

import json

from conftest import repro

FIG14 = ("figures", "--only", "fig14", "--scale", "2000")


def test_a_crashed_peer_is_replaced_mid_grid(tmp_path):
    # Generation 0 of node 0 dies at its first task receipt; the grid must
    # complete through the respawned peer with the loss visible in the
    # accounting, and exit 0.
    fault = [{"site": "node.crash", "action": "crash",
              "match": {"node": 0, "generation": 0}}]
    proc = repro(*FIG14, "--jobs", "2", "--json", REPRO_FAULTS=json.dumps(fault),
                 REPRO_CACHE_DIR=str(tmp_path / "cache"))
    payload = json.loads(proc.stdout)
    assert payload["ok"], payload.get("error")
    grid = payload["grid"]
    assert grid["nodes_lost"] == 1, grid
    assert grid["points_reassigned"] == 1, grid
    # The per-peer split is on stderr, out of the output document.
    [line] = [l for l in proc.stderr.splitlines() if l.startswith("grid nodes: ")]
    nodes = json.loads(line[len("grid nodes: "):])
    assert len(nodes) == 2, nodes


def test_a_killed_run_is_resumed_by_rerunning_it(tmp_path):
    # A real kill: the crash fault os._exit()s the CLI on the first li
    # point.  --jobs 1 computes in-process, so the crash takes the CLI
    # down (at --jobs 2 it would only kill a worker peer, which the
    # scheduler respawns).  Every point that finished is already in
    # stats/; the same command run again must recover exactly those from
    # the disk cache and simulate only the rest.
    cache = tmp_path / "cache"
    fault = [{"site": "grid.point", "match": {"benchmark": "li"}, "action": "crash"}]
    killed = repro(*FIG14, "--jobs", "1", "--json", status=None,
                   REPRO_FAULTS=json.dumps(fault), REPRO_CACHE_DIR=str(cache))
    assert killed.returncode != 0, killed.stdout
    left = len(list((cache / "stats").rglob("*.json")))
    assert left > 0
    payload = json.loads(repro(*FIG14, "--jobs", "1", "--json",
                               REPRO_CACHE_DIR=str(cache)).stdout)
    assert payload["ok"], payload.get("error")
    grid = payload["grid"]
    assert grid["disk_hits"] == left, (left, grid)
    assert grid["simulated"] == grid["unique"] - left, (left, grid)
