"""Execution parity: the execution substrate must never change the physics.

The same 60-point grid (all 12 benchmarks x 5 configurations spanning
both widths and all three modes) runs in-process (``jobs=1``) and on two
worker peers under a ``DistributedScheduler`` from cold caches, and
every ``SimStats`` field must come out bit-identical.  Sharding, the
framed wire protocol and the cache-mediated result exchange are
transport, not semantics.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import runner
from repro.experiments.distributed import DistributedScheduler
from repro.experiments.parallel import GridPoint, GridReport, run_grid
from repro.verify import faults
from repro.workloads import ALL_BENCHMARKS

SCALE = 1_500

#: five configurations covering both widths, all port counts, all modes.
CONFIGS = [
    (4, 1, "noIM"),
    (4, 1, "IM"),
    (4, 2, "V"),
    (8, 2, "V"),
    (8, 4, "V"),
]

#: 12 benchmarks x 5 configurations = the 60-point parity grid.
POINTS = [
    GridPoint(name, width, ports, mode, SCALE)
    for name in ALL_BENCHMARKS
    for width, ports, mode in CONFIGS
]


@pytest.fixture
def fresh_state(tmp_path, monkeypatch):
    """Cold memo, private enabled disk cache, nothing armed."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runner.clear_memo()
    faults.clear()
    yield tmp_path
    faults.clear()
    runner.clear_memo()


def _fingerprints(results):
    return {p: dataclasses.asdict(s) for p, s in results.items()}


def _run_cold(tmp_path, monkeypatch, cache_name, **fabric):
    """One cold run of the grid in its own private disk cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / cache_name))
    runner.clear_memo()
    report = GridReport()
    results = run_grid(POINTS, report=report, **fabric)
    assert report.ok, report.failed
    assert report.simulated == len(POINTS)
    return _fingerprints(results)


def test_sixty_point_grid_identical_through_both_backends(fresh_state, monkeypatch):
    local = _run_cold(fresh_state, monkeypatch, "local", jobs=1)
    with DistributedScheduler(nodes=2) as scheduler:
        distributed = _run_cold(fresh_state, monkeypatch, "dist", scheduler=scheduler)
    assert set(local) == set(POINTS)
    assert local == distributed
