"""Points follow their traces across the worker peers.

A warm-up sends each peer one contiguous share of the warm list, and the
dispatcher hands a free peer the first point whose trace it holds, else
a point whose trace no other usable peer holds, else a point whose
holders are all busy.  The first tests drive real peers at a small
scale; the last ones set up the dispatcher's state by hand, so each
preference and each way a holder can drop out is pinned exactly.
"""

from __future__ import annotations

import json
from typing import List

import pytest

from repro.experiments import runner
from repro.experiments.distributed import DistributedScheduler
from repro.experiments.distributed.scheduler import NODE_MAX_STRIKES, _Batch
from repro.experiments.parallel import FaultPolicy, GridPoint, GridReport, run_grid
from repro.verify import faults

SCALE = 1_500
CONFIGS = [(4, 1, "V"), (4, 2, "noIM"), (8, 1, "IM")]


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


def _warm(scheduler, names=("compress", "swim")) -> dict:
    warmup = scheduler.start_warm(list(names), SCALE)
    assert warmup.wait(120) == scheduler.nodes
    return warmup.held


def _run(scheduler, points, report=None) -> list:
    """Run one batch; the ``(benchmark, node)`` of each ``point.done``."""
    done = []

    def progress(event, **data):
        if event == "point.done":
            done.append((data["point"], data["node"]))

    report = report if report is not None else GridReport()
    run_grid(points, scheduler=scheduler, report=report, progress=progress)
    assert report.ok, report.failed
    return done


def test_warm_up_leaves_one_share_on_each_peer(fresh_state):
    with DistributedScheduler(nodes=2) as scheduler:
        held = _warm(scheduler)
    assert held == {0: [["compress", SCALE, 0]], 1: [["swim", SCALE, 0]]}


def test_closed_loop_runs_every_point_on_its_holder(fresh_state):
    """One-point batches, one after another: each lands on the peer that
    warmed its trace, and no peer loads a trace after the warm-up."""
    with DistributedScheduler(nodes=2) as scheduler:
        _warm(scheduler)
        done = []
        for width, ports, mode in CONFIGS:
            for name in ("compress", "swim", "swim", "compress"):
                point = GridPoint(name, width, ports, mode, SCALE)
                done += _run(scheduler, [point])
        held = _warm(scheduler, names=())
    assert {node for name, node in done if name == "compress"} == {0}
    assert {node for name, node in done if name == "swim"} == {1}
    assert held == {0: [["compress", SCALE, 0]], 1: [["swim", SCALE, 0]]}


def test_idle_peer_takes_a_point_whose_holder_is_busy(fresh_state):
    with DistributedScheduler(nodes=2) as scheduler:
        _warm(scheduler)
        points = [GridPoint("compress", w, p, m, SCALE) for w, p, m in CONFIGS[:2]]
        done = _run(scheduler, points)
    assert sorted(node for _, node in done) == [0, 1]


def test_holder_barred_after_crashes_does_not_strand_its_points(
    fresh_state, monkeypatch
):
    """Node 0 holds compress and dies on every compress point: after two
    losses the batch bars it, and node 1 runs every compress point.  The
    slow points keep node 1 busy while node 0 dies, so node 0 takes the
    reassigned point again rather than leave it to node 1."""
    monkeypatch.setenv("REPRO_FAULTS", json.dumps([
        {"site": "node.crash", "action": "crash",
         "match": {"node": 0, "benchmark": "compress"}},
        {"site": "grid.point", "action": "hang",
         "match": {"benchmark": "compress"}, "delay": 1.5},
    ]))
    points = [GridPoint("compress", w, p, m, SCALE) for w, p, m in CONFIGS]
    report = GridReport()
    with DistributedScheduler(nodes=2) as scheduler:
        _warm(scheduler)
        done = _run(scheduler, points, report)
    assert {node for _, node in done} == {1}
    assert len(done) == len(points)
    assert report.nodes[0]["quarantined"]  # barred by this batch
    assert report.nodes_lost == NODE_MAX_STRIKES


# -- the dispatcher's choices, on hand-set state -----------------------------


class _StubPeer:
    """Stands in for a live worker peer: records the tasks it is sent."""

    generation = 0

    def __init__(self) -> None:
        self.dead = False
        self.inflight = None
        self.sent: List[list] = []

    def send(self, payload) -> bool:
        self.sent.append(payload["point"])
        return True


def _stub_scheduler(*holdings):
    """A scheduler whose slot ``i`` holds the traces named in ``holdings[i]``."""
    scheduler = DistributedScheduler(nodes=len(holdings))
    for slot, names in zip(scheduler._slots, holdings):
        slot.peer = _StubPeer()
        slot.traces = {(name, SCALE) for name in names}
    return scheduler


def _batch(scheduler, *names) -> _Batch:
    points = [GridPoint(name, 4, 1, "V", SCALE) for name in names]
    batch = _Batch(points, FaultPolicy(), GridReport(), None, None, None)
    scheduler._batches.append(batch)
    return batch


def _sent(scheduler) -> List[List[str]]:
    return [[point[0] for point in slot.peer.sent] for slot in scheduler._slots]


def test_a_free_peer_prefers_its_own_trace_then_an_unheld_one():
    scheduler = _stub_scheduler(["li"], ["go"])
    _batch(scheduler, "swim", "go", "li")
    scheduler._dispatch()
    assert _sent(scheduler) == [["li"], ["go"]]
    assert scheduler._batches[0].pending[0].name == "swim"


def test_a_point_held_by_an_idle_peer_waits_for_it():
    scheduler = _stub_scheduler([], ["li"])
    _batch(scheduler, "li")
    scheduler._dispatch()
    assert _sent(scheduler) == [[], ["li"]]


def test_a_point_held_by_a_busy_peer_goes_to_an_idle_one():
    scheduler = _stub_scheduler([], ["li"])
    scheduler._slots[1].peer.inflight = ("busy",)
    _batch(scheduler, "li")
    scheduler._dispatch()
    assert _sent(scheduler) == [["li"], []]


def test_a_barred_holder_does_not_strand_a_point():
    scheduler = _stub_scheduler(["li"], [])
    batch = _batch(scheduler, "li")
    batch.strikes[0] = NODE_MAX_STRIKES
    scheduler._dispatch()
    assert _sent(scheduler) == [[], ["li"]]


def test_a_quarantined_holder_does_not_strand_a_point():
    scheduler = _stub_scheduler(["li"], [])
    scheduler._slots[0].quarantined = True
    _batch(scheduler, "li")
    scheduler._dispatch()
    assert _sent(scheduler) == [[], ["li"]]


def test_a_peer_the_batch_offers_nothing_tries_the_next_batch():
    scheduler = _stub_scheduler([], ["li"])
    _batch(scheduler, "li")
    _batch(scheduler, "swim")
    scheduler._turn = len(scheduler._batches) - 1  # slot 0 looks at "li" first
    scheduler._dispatch()
    assert _sent(scheduler) == [["swim"], ["li"]]
