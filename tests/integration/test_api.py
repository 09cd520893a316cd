"""The stable ``repro.api`` facade and its versioned JSON schemas."""

from __future__ import annotations

import json

import pytest

import repro
from repro import api
from repro.experiments import runner
from repro.experiments.figures import FIGURES, FigureSpec, get_figure

SCALE = 2_000


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runner.clear_memo()
    yield
    runner.clear_memo()


def test_simulate_returns_run_result():
    result = api.simulate("li", scale=SCALE)
    assert result.benchmark == "li"
    assert result.stats.committed == SCALE
    assert result.ipc > 0
    payload = result.to_dict()
    assert payload["schema"] == "repro.run/v1"
    assert payload["point"]["benchmark"] == "li"
    assert payload["stats"]["committed"] == SCALE
    assert payload["derived"]["ipc"] == pytest.approx(result.ipc)
    json.dumps(payload)  # schema must be JSON-serializable


def test_simulate_rejects_unknown_benchmark():
    with pytest.raises(ValueError, match="unknown benchmark"):
        api.simulate("mcf")


def test_simulate_with_metrics_attaches_registry_payload():
    result = api.simulate("li", scale=SCALE, metrics=True)
    assert result.metrics is not None
    assert result.metrics["sim.committed"]["data"] == SCALE


def test_grid_returns_report_with_runs_and_metrics():
    points = [("li", 4, 1, "V", SCALE), ("compress", 4, 1, "V", SCALE)]
    report = api.grid(points, jobs=1, metrics=True)
    assert len(report) == 2
    assert report.accounting.requested == 2
    total = sum(run.stats.committed for run in report.runs)
    assert report.metrics.counter("sim.committed").value == total
    payload = report.to_dict()
    assert payload["schema"] == "repro.grid/v1"
    assert payload["accounting"]["requested"] == 2
    assert len(payload["runs"]) == 2
    json.dumps(payload)


def test_grid_results_name_their_overrides():
    plain = api.GridPoint("swim", 4, 1, "V", 1_500)
    wide = plain._replace(overrides=(("vector_length", 8),))
    report = api.grid([plain, wide], jobs=1)
    stats = report.stats()
    assert list(stats) == [plain, wide]
    assert stats[plain].ipc == runner.run_point(*plain).ipc
    assert stats[wide].ipc == runner.run_point(*wide).ipc != stats[plain].ipc
    points = [run.to_dict()["point"] for run in report.runs]
    # A plain point's payload keeps its six coordinates, byte for byte.
    assert list(points[0]) == [
        "benchmark", "width", "ports", "mode", "scale", "block_on_scalar_operand",
    ]
    assert points[1] == {**points[0], "overrides": {"vector_length": 8}}


def test_trace_captures_events_and_cross_checks():
    report = api.trace(
        "turb3d", width=8, ports=2, scale=4_000, events=["validation", "squash"]
    )
    assert report.events, "a V-mode trace must capture events"
    kinds = {event.kind for event in report.events}
    assert "validate.pass" in kinds
    checks = report.crosscheck()
    assert checks and all(check["match"] for check in checks.values())
    # filtered-out kinds are not cross-checked (they were never counted)
    assert "tl.promote" not in checks
    payload = report.to_dict()
    assert payload["schema"] == "repro.trace/v1"
    assert payload["capture"]["emitted"] >= len(payload["events"])
    json.dumps(payload)


def test_trace_rejects_unknown_event_filter():
    with pytest.raises(ValueError, match="unknown event filter"):
        api.trace("li", scale=SCALE, events=["bogus"])


def test_figure_resolves_specs_and_computes_rows():
    spec = get_figure("fig14")
    assert isinstance(spec, FigureSpec)
    with pytest.raises(KeyError, match="unknown figure"):
        get_figure("fig99")
    result = api.figure("fig14", scale=SCALE, jobs=1)
    assert set(result.rows) >= {"li", "swim"}
    payload = result.to_dict()
    assert payload["schema"] == "repro.figure/v1"
    assert payload["figure"]["name"] == "fig14"


def test_registry_covers_all_known_figures():
    assert set(FIGURES) == {
        "fig01", "fig03", "fig07", "fig09", "fig10",
        "fig11_4way", "fig11_8way", "fig12_4way", "fig12_8way",
        "fig13", "fig14", "fig15",
    }
    for spec in FIGURES.values():
        assert callable(spec.rows) and callable(spec.points)
    # The trace-analysis figures are the ones declaring no configuration.
    assert [name for name, spec in FIGURES.items() if spec.analysis_only] == [
        "fig01", "fig03",
    ]


def test_top_level_exports():
    assert repro.simulate is api.simulate
    assert repro.grid is api.grid
    assert repro.trace is api.trace
    assert repro.api is api
