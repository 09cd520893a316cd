"""Metrics of a grid or a single run are a pure function of its stats.

:func:`repro.api.grid` and :func:`repro.api.simulate` derive their
``sim.*`` registry from the returned stats, in request order, so the
whole registry — not just one counter — is identical whichever path
produced each point: a fresh simulation in-process or on worker peers,
an in-process memo hit, or a disk-cache hit, and whatever process wrote
the disk entry.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro import api
from repro.experiments import runner
from repro.observe import MetricsRegistry, record_sim_stats

SCALE = 1_500

POINTS = [
    api.GridPoint("li", 4, 1, "V", SCALE),
    api.GridPoint("compress", 4, 1, "V", SCALE),
]


@pytest.fixture
def fresh_state(tmp_path, monkeypatch):
    """Cold memo + private, enabled disk cache for one test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    runner.clear_memo()
    yield tmp_path
    runner.clear_memo()


def _expected(report) -> dict:
    registry = MetricsRegistry()
    for point in POINTS:
        record_sim_stats(registry, report.stats()[point])
    return registry.to_dict()


def test_grid_aggregates_identically_across_all_paths(fresh_state, monkeypatch):
    # Cold, in-process.
    cold1 = api.grid(POINTS, jobs=1, metrics=True)
    assert cold1.accounting.simulated == len(POINTS)
    expected = cold1.metrics.to_dict()
    assert expected == _expected(cold1)
    assert expected["sim.committed"]["data"] == sum(
        run.stats.committed for run in cold1.runs
    )

    # Cold, on two worker peers (a second, empty cache).
    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_state / "cache2"))
    runner.clear_memo()
    cold2 = api.grid(POINTS, jobs=2, metrics=True)
    assert cold2.accounting.simulated == len(POINTS)
    assert cold2.metrics.to_dict() == expected

    # Memo-warm: nothing simulated, nothing read from disk.
    memo = api.grid(POINTS, jobs=2, metrics=True)
    assert memo.accounting.memo_hits == len(POINTS)
    assert memo.metrics.to_dict() == expected

    # Disk-warm: every point read back in the parent.
    runner.clear_memo()
    disk = api.grid(POINTS, jobs=2, metrics=True)
    assert disk.accounting.disk_hits == len(POINTS)
    assert disk.metrics.to_dict() == expected

    # Machine-level metrics come from a fresh observed run only.
    assert not any(name.startswith(("engine.", "mem.")) for name in expected)


def test_grid_without_registry_records_nothing(fresh_state):
    report = api.grid(POINTS, jobs=1)
    assert report.metrics is None
    assert report.to_dict()["metrics"] is None


def test_grid_runs_follow_request_order_across_mixed_layers(fresh_state):
    # li is a memo hit, compress is cold: the report still lists (and
    # records) the points in the order they were requested.
    api.simulate("li", scale=SCALE)
    report = api.grid(list(reversed(POINTS)) + POINTS, jobs=1, metrics=True)
    assert report.accounting.memo_hits == 1
    assert [run.point() for run in report.runs] == list(reversed(POINTS))


def _simulate_metrics_from_disk() -> dict:
    runner.clear_memo()
    return api.simulate("li", scale=SCALE, metrics=True).metrics


def test_simulate_metrics_do_not_depend_on_who_wrote_the_entry(
    fresh_state, monkeypatch
):
    # Cache A: the entry is written by a run that asked for metrics.
    cold = api.simulate("li", scale=SCALE, metrics=True).metrics
    written_observed = _simulate_metrics_from_disk()
    # Cache B: the entry is written by a plain run.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_state / "cache2"))
    runner.clear_memo()
    api.simulate("li", scale=SCALE)
    written_plain = _simulate_metrics_from_disk()
    memo = api.simulate("li", scale=SCALE, metrics=True).metrics

    assert written_observed == cold
    assert written_plain == cold
    assert memo == cold
    assert all(name.startswith("sim.") for name in cold)


def test_trace_metrics_are_a_superset_of_simulate_metrics(fresh_state):
    plain = api.simulate("li", scale=SCALE, metrics=True).metrics
    traced = api.trace("li", scale=SCALE, events=["validation"], metrics=True)
    full = traced.result.metrics
    assert {name: full[name] for name in plain} == plain
    assert any(name.startswith("engine.") for name in full)
    assert any(name.startswith("mem.") for name in full)


def test_observer_does_not_change_grid_results(fresh_state):
    plain = api.grid(POINTS, jobs=1)
    runner.clear_memo()
    shutil.rmtree(os.environ["REPRO_CACHE_DIR"], ignore_errors=True)
    observed = api.grid(POINTS, jobs=1, metrics=True)
    assert observed.stats() == plain.stats()
