"""The fault-tolerant grid fabric, driven by the deterministic injector.

One bad grid point must never cost the rest of the grid.  These tests
script every failure class through :mod:`repro.verify.faults` —
transient exceptions (retried), persistent exceptions (quarantined),
worker crashes (peer loss + reassignment) and hangs (per-task deadline) —
and assert both halves of the contract: the healthy points' results
stay bit-identical to a fault-free run, and the failures are reported
precisely (kind, attempts, exact point).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import runner
from repro.experiments.parallel import GridPoint, GridReport, run_grid
from repro.verify import faults

SCALE = 1_500

POINTS = [
    GridPoint("li", 4, 1, "V", SCALE),
    GridPoint("li", 4, 1, "noIM", SCALE),
    GridPoint("compress", 4, 1, "V", SCALE),
    GridPoint("compress", 4, 1, "noIM", SCALE),
]
CRASHER = POINTS[0]
HEALTHY = POINTS[1:]


@pytest.fixture
def fresh_state(tmp_path, monkeypatch):
    """Cold memo, private enabled disk cache, nothing armed."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    runner.clear_memo()
    faults.clear()
    yield tmp_path
    faults.clear()
    runner.clear_memo()


def _fingerprints(results):
    return {p: dataclasses.asdict(s) for p, s in results.items()}


def _reference(tmp_path, monkeypatch):
    """Fault-free serial fingerprints, computed in a throwaway cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "reference-cache"))
    reference = _fingerprints(run_grid(POINTS, jobs=1))
    runner.clear_memo()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return reference


def test_transient_failure_is_retried_to_success(fresh_state):
    faults.install([
        {
            "site": "grid.point",
            "action": "raise",
            "match": {"benchmark": "li", "mode": "V"},
            "times": 2,
        }
    ])
    report = GridReport()
    results = run_grid(POINTS, jobs=1, report=report, max_retries=3)
    assert report.ok
    assert set(results) == set(POINTS)
    assert report.retries == 2
    assert report.simulated == len(POINTS)


def test_poisoned_point_is_quarantined_and_the_rest_complete(fresh_state, monkeypatch):
    reference = _reference(fresh_state, monkeypatch)
    faults.install([
        {
            "site": "grid.point",
            "action": "raise",
            "match": {"benchmark": "li", "mode": "V"},
            "message": "poisoned",
        }
    ])
    report = GridReport()
    results = run_grid(POINTS, jobs=1, report=report, max_retries=1)

    assert not report.ok
    assert set(results) == set(HEALTHY)
    assert _fingerprints(results) == {p: reference[p] for p in HEALTHY}

    (failure,) = report.failed
    assert failure.point == CRASHER
    assert failure.kind == "error"
    assert failure.attempts == 2  # first try + one retry
    assert "poisoned" in failure.error
    assert "FAILED" in report.summary()

    assert report.retries == 1
    assert len(report.failed) == 1


def test_worker_crash_salvages_the_grid_and_indicts_the_point(fresh_state, monkeypatch):
    reference = _reference(fresh_state, monkeypatch)
    # The env form is what reaches worker peers (inherited environment).
    monkeypatch.setenv(
        "REPRO_FAULTS",
        json.dumps([
            {
                "site": "grid.point",
                "action": "crash",
                "match": {"benchmark": "li", "mode": "V"},
            }
        ]),
    )
    report = GridReport()
    results = run_grid(POINTS, jobs=2, report=report, max_retries=1)

    # Every healthy point was salvaged, bit-identical to the fault-free run.
    assert set(results) == set(HEALTHY)
    assert _fingerprints(results) == {p: reference[p] for p in HEALTHY}

    # Exactly the crashing point is quarantined, with its retry count.
    (failure,) = report.failed
    assert failure.point == CRASHER
    assert failure.kind == "node.lost"
    assert failure.attempts == 2
    assert report.nodes_lost >= 1


def test_hung_task_times_out_and_the_rest_complete(fresh_state, monkeypatch):
    monkeypatch.setenv(
        "REPRO_FAULTS",
        json.dumps([
            {
                "site": "grid.point",
                "action": "hang",
                "delay": 120.0,
                "match": {"benchmark": "li", "mode": "V"},
            }
        ]),
    )
    report = GridReport()
    results = run_grid(POINTS, jobs=2, report=report, task_timeout=5.0, max_retries=0)

    assert set(results) == set(HEALTHY)
    (failure,) = report.failed
    assert failure.point == CRASHER
    assert failure.kind == "timeout"
    assert failure.attempts == 1
    assert "5" in failure.error


@pytest.mark.slow
def test_sixty_point_grid_survives_a_crash_and_a_poisoned_point(
    fresh_state, monkeypatch
):
    # The acceptance grid: 12 benchmarks x 5 machine configurations.
    # One point kills its worker, another fails deterministically; every
    # healthy point must come back bit-identical to a fault-free run and
    # exactly the two bad points must be reported, with retry counts.
    from repro.workloads import ALL_BENCHMARKS

    configs = [(4, 1, "noIM"), (4, 1, "IM"), (4, 1, "V"), (8, 1, "V"), (4, 2, "V")]
    grid = [
        GridPoint(name, width, ports, mode, SCALE)
        for name in ALL_BENCHMARKS
        for width, ports, mode in configs
    ]
    assert len(grid) == 60
    crasher = GridPoint("li", 4, 1, "V", SCALE)
    poisoned = GridPoint("swim", 8, 1, "V", SCALE)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_state / "reference-cache"))
    reference = _fingerprints(run_grid(grid, jobs=4))
    runner.clear_memo()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_state / "cache"))

    monkeypatch.setenv(
        "REPRO_FAULTS",
        json.dumps([
            {
                "site": "grid.point",
                "action": "crash",
                "match": {"benchmark": "li", "width": 4, "ports": 1, "mode": "V"},
            },
            {
                "site": "grid.point",
                "action": "raise",
                "match": {"benchmark": "swim", "width": 8, "mode": "V"},
                "message": "poisoned",
            },
        ]),
    )
    report = GridReport()
    results = run_grid(grid, jobs=4, report=report, max_retries=1)

    healthy = [p for p in grid if p not in (crasher, poisoned)]
    assert set(results) == set(healthy)
    assert _fingerprints(results) == {p: reference[p] for p in healthy}

    assert len(report.failed) == 2
    by_point = {failure.point: failure for failure in report.failed}
    assert by_point[crasher].kind == "node.lost"
    assert by_point[crasher].attempts == 2
    assert by_point[poisoned].kind == "error"
    assert by_point[poisoned].attempts == 2
    assert "poisoned" in by_point[poisoned].error
    assert report.nodes_lost >= 1
    assert not report.ok


def test_failed_points_still_heal_on_the_next_run(fresh_state):
    # A quarantined point is absent from the results but not poisoned
    # forever: the next run (fault gone) computes it normally.
    with faults.injected([
        {"site": "grid.point", "action": "raise", "match": {"benchmark": "li"}}
    ]):
        report = GridReport()
        run_grid(POINTS, jobs=1, report=report, max_retries=0)
        assert len(report.failed) == 2  # both li points
    healed = GridReport()
    results = run_grid(POINTS, jobs=1, report=healed)
    assert healed.ok
    assert set(results) == set(POINTS)
