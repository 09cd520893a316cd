"""The node-loss fault-suite: kill peers, corrupt frames, drop heartbeats.

PR 5's contract — one bad actor must never cost the rest of the grid —
lifted to the node level and scripted through the deterministic injector
(:mod:`repro.verify.faults`).  Worker peers inherit ``REPRO_FAULTS``
through the environment, so every scenario arms the env var (not the
in-process list) and matches on ``node``/``generation``: a ``times``
counter is per *process* and would re-fire in every respawned peer,
whereas generation 0 of a slot exists exactly once.

Both halves are asserted each time: the grid completes through the
surviving/respawned peers with results bit-identical to a fault-free
serial run, and the loss is reported precisely (``nodes_lost``,
``points_reassigned``, per-slot strikes/quarantine, failure kinds).
"""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

from repro.experiments import runner
from repro.experiments.distributed import DistributedScheduler
from repro.experiments.parallel import GridPoint, GridReport, run_grid
from repro.verify import faults

SCALE = 1_500

POINTS = [
    GridPoint("li", 4, 1, "V", SCALE),
    GridPoint("li", 4, 1, "noIM", SCALE),
    GridPoint("compress", 4, 1, "V", SCALE),
    GridPoint("compress", 4, 1, "noIM", SCALE),
    GridPoint("go", 4, 1, "V", SCALE),
    GridPoint("go", 4, 1, "noIM", SCALE),
]
POISONED = POINTS[0]
HEALTHY = POINTS[1:]


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


def _reference(tmp_path, monkeypatch, points=POINTS):
    """Fault-free serial fingerprints, computed in a throwaway cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "reference-cache"))
    reference = _fingerprints(run_grid(points, jobs=1))
    runner.clear_memo()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return reference


def _arm(monkeypatch, specs) -> None:
    """Arm specs via the env var so subprocess peers inherit them."""
    monkeypatch.setenv("REPRO_FAULTS", json.dumps(specs))


def test_killed_worker_mid_grid_is_reassigned(fresh_state, monkeypatch):
    """Node 0's first peer dies on task receipt; the grid still completes
    bit-identical via reassignment and a respawned generation."""
    reference = _reference(fresh_state, monkeypatch)
    _arm(monkeypatch, [
        {"site": "node.crash", "action": "crash", "match": {"node": 0, "generation": 0}},
    ])
    report = GridReport()
    with DistributedScheduler(nodes=2) as scheduler:
        results = run_grid(POINTS, scheduler=scheduler, report=report)
    assert report.ok, report.failed
    assert report.nodes_lost == 1
    assert report.points_reassigned == 1
    assert report.retries == 1
    node0 = report.nodes[0]
    assert node0["generations"] == 2
    assert node0["strikes"] == 1
    assert not node0["quarantined"]
    assert _fingerprints(results) == reference


def test_poisoned_point_quarantines_without_costing_the_grid(
    fresh_state, monkeypatch
):
    """A point that kills every host it lands on exhausts its retries and
    quarantines with kind ``node.lost``; the healthy points survive."""
    reference = _reference(fresh_state, monkeypatch)
    _arm(monkeypatch, [
        {
            "site": "node.crash",
            "action": "crash",
            "match": {"benchmark": "li", "mode": "V"},
        },
    ])
    report = GridReport()
    with DistributedScheduler(nodes=2) as scheduler:
        results = run_grid(POINTS, scheduler=scheduler, report=report)
    assert not report.ok
    assert [failure.point for failure in report.failed] == [POISONED]
    failure = report.failed[0]
    assert failure.kind == "node.lost"
    assert failure.attempts == 3  # default max_retries=2, every attempt fatal
    assert report.nodes_lost == 3
    assert set(results) == set(HEALTHY)
    assert _fingerprints(results) == {
        p: s for p, s in reference.items() if p != POISONED
    }


def test_corrupt_transport_frame_recycles_the_node(fresh_state, monkeypatch):
    """An undecodable result frame is a dead peer, not a wrong result:
    the point is recomputed elsewhere and the grid stays bit-identical."""
    reference = _reference(fresh_state, monkeypatch)
    _arm(monkeypatch, [
        {
            "site": "transport.garbage",
            "action": "garbage",
            "match": {"node": 0, "generation": 0, "type": "result"},
        },
    ])
    report = GridReport()
    with DistributedScheduler(nodes=2) as scheduler:
        results = run_grid(POINTS, scheduler=scheduler, report=report)
    assert report.ok, report.failed
    assert report.nodes_lost == 1
    assert report.points_reassigned == 1
    assert _fingerprints(results) == reference


def test_dropped_heartbeats_with_wedged_task_hit_the_liveness_clock(
    fresh_state, monkeypatch
):
    """A peer whose heartbeat thread dies *and* whose task wedges goes
    silent; frame silence past ``heartbeat_timeout`` declares it lost."""
    reference = _reference(fresh_state, monkeypatch)
    _arm(monkeypatch, [
        {
            "site": "node.heartbeat",
            "action": "raise",
            "match": {"node": 0, "generation": 0},
        },
        {
            "site": "node.crash",
            "action": "hang",
            "match": {"node": 0, "generation": 0},
            "delay": 30.0,
        },
    ])
    report = GridReport()
    with DistributedScheduler(
        nodes=2, heartbeat_interval=0.2, heartbeat_timeout=2.0
    ) as scheduler:
        results = run_grid(POINTS, scheduler=scheduler, report=report)
    assert report.ok, report.failed
    assert report.nodes_lost == 1
    assert report.points_reassigned == 1
    assert _fingerprints(results) == reference


def test_concurrent_batches_share_one_scheduler_and_survive_a_cancel(
    fresh_state, monkeypatch
):
    """Three batches from three threads share one caller-owned scheduler
    (more threads than peers or cores) and come back bit-identical to the
    serial run; cancelling one drops only its own work, and the same
    scheduler then serves a fourth batch."""
    reference = _reference(fresh_state, monkeypatch)
    batches = {"a": POINTS[0:2], "b": POINTS[2:4], "doomed": POINTS[4:6]}
    stop = threading.Event()
    reports = {name: GridReport() for name in batches}
    results, errors = {}, []

    def run(name, **extra):
        try:
            results[name] = run_grid(
                batches[name], scheduler=scheduler, report=reports[name], **extra
            )
        except Exception as exc:  # surfaced below; a thread cannot raise
            errors.append(exc)

    with DistributedScheduler(nodes=2) as scheduler:
        threads = [
            threading.Thread(target=run, args=("a",)),
            threading.Thread(target=run, args=("b",)),
            threading.Thread(
                target=run,
                args=("doomed",),
                kwargs={"cancel": stop, "on_result": lambda point, stats: stop.set()},
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

        for name in ("a", "b"):
            assert reports[name].ok and not reports[name].cancelled
            assert set(results[name]) == set(batches[name])
            assert reports[name].nodes_lost == 0
        assert reports["doomed"].cancelled
        assert len(results["doomed"]) < len(batches["doomed"])
        finished = {p: s for found in results.values() for p, s in found.items()}
        assert _fingerprints(finished) == {p: reference[p] for p in finished}

        again = GridReport()
        rerun = run_grid(batches["doomed"], scheduler=scheduler, report=again)
        assert again.ok and not again.cancelled
        assert _fingerprints(rerun) == {p: reference[p] for p in batches["doomed"]}


def test_poisoned_batch_cannot_take_peers_from_a_concurrent_one(
    fresh_state, monkeypatch
):
    """Strikes belong to the batch whose point was in flight.  A batch
    whose points crash every peer they land on strikes out on both slots
    and fails; a concurrent healthy batch keeps both slots and completes
    bit-identical, with no node counted against it."""
    healthy = [
        GridPoint(name, 4, 1, "noIM", SCALE)
        for name in ("compress", "go", "swim", "perl", "ijpeg", "m88ksim", "applu", "vortex")
    ]
    poisoned = [GridPoint("li", 4, 1, mode, SCALE) for mode in ("V", "IM")]
    reference = _reference(fresh_state, monkeypatch, healthy)
    _arm(monkeypatch, [
        {"site": "grid.point", "action": "crash", "match": {"benchmark": "li"}},
        # slow healthy points keep the healthy batch queued while the
        # poisoned one burns through its strikes
        {"site": "grid.point", "action": "hang", "match": {"mode": "noIM"}, "delay": 0.4},
    ])
    started = threading.Event()
    reports = {"healthy": GridReport(), "poisoned": GridReport()}
    results, errors = {}, []

    def run(name, points, **extra):
        try:
            results[name] = run_grid(
                points, scheduler=scheduler, report=reports[name], **extra
            )
        except Exception as exc:  # surfaced below; a thread cannot raise
            errors.append(exc)

    def run_poisoned():
        started.wait(60)
        run("poisoned", poisoned)

    with DistributedScheduler(nodes=2) as scheduler:
        threads = [
            threading.Thread(
                target=run,
                args=("healthy", healthy),
                kwargs={"on_result": lambda point, stats: started.set()},
            ),
            threading.Thread(target=run_poisoned),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors

    bad = reports["poisoned"]
    assert {failure.point for failure in bad.failed} == set(poisoned)
    assert bad.nodes_lost >= 4
    assert all(node["quarantined"] for node in bad.nodes)

    good = reports["healthy"]
    assert good.ok, good.failed
    assert good.nodes_lost == 0
    assert not any(node["quarantined"] for node in good.nodes)
    assert _fingerprints(results["healthy"]) == reference


def test_dispatcher_failure_raises_instead_of_hanging(fresh_state):
    """An unexpected exception in the dispatcher thread reaches the
    waiting caller, and every later call raises instead of blocking."""
    scheduler = DistributedScheduler(nodes=1)

    def broken():
        raise KeyError("stats")

    scheduler._dispatch = broken
    try:
        for _ in range(2):
            with pytest.raises(RuntimeError, match="dispatcher failed"):
                run_grid(POINTS[:2], scheduler=scheduler)
    finally:
        scheduler.close()
