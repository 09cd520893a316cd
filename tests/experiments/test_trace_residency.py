"""Each functional trace is resident only while its points run.

The serial grid runs its cold points grouped by trace and releases each
trace it loaded after that trace's last point, so it builds every
trace once and holds one at a time; a trace the caller held stays
resident.  The Fig 1 / Fig 3 analyses share one load of each trace and
leave nothing resident that they loaded; a cold serial ``figures``
computes them while the grid holds each trace.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.__main__ import main
from repro.experiments import runner
from repro.experiments.parallel import GridPoint, run_grid
from repro.workloads import spec95
from repro.workloads.suite import ALL_BENCHMARKS

SCALE = 1_500

#: interleaved on purpose: request order alternates the two traces.
POINTS = [
    GridPoint(name, 4, ports, mode, SCALE)
    for ports in (1, 2)
    for mode in ("noIM", "V")
    for name in ("compress", "li")
]


@pytest.fixture
def cold(tmp_path, monkeypatch):
    """An empty disk cache and memo, and no trace resident at this scale."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runner.clear_memo()
    _release_all()
    yield tmp_path / "cache"
    runner.clear_memo()
    _release_all()


def _release_all():
    for name in ALL_BENCHMARKS:
        spec95.release_trace(name, SCALE)


def _resident():
    """The resident traces at this scale (other tests may hold others)."""
    return [trace for trace in spec95.resident_traces() if trace[1] == SCALE]


@pytest.fixture
def loads(monkeypatch):
    """Per benchmark: traces built (``run_program`` calls); and, at each
    build, the traces then resident."""
    counts = {"built": Counter(), "resident_at_load": []}
    run_program = spec95.run_program
    build = spec95.build
    building = []

    def counting_build(name, scale, seed=0):
        building.append(name)
        return build(name, scale, seed)

    def counting_run(program, **kwargs):
        counts["built"][building.pop()] += 1
        counts["resident_at_load"].append(_resident())
        return run_program(program, **kwargs)

    monkeypatch.setattr(spec95, "build", counting_build)
    monkeypatch.setattr(spec95, "run_program", counting_run)
    return counts


def test_serial_grid_builds_each_trace_once_on_a_cold_cache(cold, loads):
    results = run_grid(POINTS, jobs=1)
    assert list(results) == POINTS  # request order, whatever the run order
    assert loads["built"] == Counter({"compress": 1, "li": 1})
    assert _resident() == []


def test_serial_grid_rebuilds_each_released_trace_once(cold, loads):
    run_grid(POINTS, jobs=1)
    runner.clear_memo()
    # Fresh stats keys for the same traces: the first grid released its
    # traces, so this one builds each again, once.
    again = [point._replace(width=8) for point in POINTS]
    run_grid(again, jobs=1)
    assert loads["built"] == Counter({"compress": 2, "li": 2})
    assert _resident() == []


def test_serial_grid_holds_one_trace_it_loaded_at_a_time(cold, loads):
    held = spec95.cached_trace("swim", SCALE)
    points = POINTS + [GridPoint("swim", 4, 1, "V", SCALE)]
    run_grid(points, jobs=1)
    swim = ("swim", SCALE, 0)
    for resident in loads["resident_at_load"][1:]:
        # Every load after the caller's own finds no other grid-loaded
        # trace resident.
        assert [trace for trace in resident if trace != swim] == []
    assert _resident() == [swim]
    assert spec95.cached_trace("swim", SCALE) is held


def test_cold_fig01_fig03_share_one_load_per_trace(cold, loads, capsys):
    assert main(["figures", "--only", "fig01", "fig03", "--scale", str(SCALE),
                 "--jobs", "1", "--json"]) == 0
    assert loads["built"] == Counter(dict.fromkeys(ALL_BENCHMARKS, 1))
    assert _resident() == []
    cold_rows = capsys.readouterr().out

    # Analyses gone: each trace is built again, once for both figures.
    assert main(["cache", "clear", "--section", "analysis"]) == 0
    capsys.readouterr()
    loads["built"].clear()
    assert main(["figures", "--only", "fig01", "fig03", "--scale", str(SCALE),
                 "--jobs", "1", "--json"]) == 0
    assert loads["built"] == Counter(dict.fromkeys(ALL_BENCHMARKS, 1))
    assert _resident() == []
    assert capsys.readouterr().out == cold_rows


def test_cold_serial_figures_build_each_trace_once(cold, loads, capsys):
    """A cold ``figures --jobs 1`` computes the Fig 1 / Fig 3 analyses
    while the serial grid holds each trace, so every trace is built once
    for both the simulations and the analyses."""
    assert main(["figures", "--scale", str(SCALE), "--jobs", "1", "--json"]) == 0
    capsys.readouterr()
    assert loads["built"] == Counter(dict.fromkeys(ALL_BENCHMARKS, 1))
    assert sum(loads["built"].values()) == 12
    assert _resident() == []


def test_a_traced_run_releases_the_trace_it_loaded(cold):
    from repro import api

    api.trace("li", scale=SCALE, events=["validation"])
    assert _resident() == []
    held = spec95.cached_trace("li", SCALE)
    api.trace("li", scale=SCALE, events=["validation"])
    assert spec95.cached_trace("li", SCALE) is held


def test_cold_runs_write_only_stats_and_analyses(cold, capsys):
    assert main(["run", "li", "--mode", "V", "--scale", str(SCALE)]) == 0
    assert main(["figures", "--only", "fig01", "fig03", "--scale", str(SCALE),
                 "--jobs", "1", "--json"]) == 0
    capsys.readouterr()
    written = sorted(path.relative_to(cold).parts[0] for path in cold.rglob("*")
                     if path.is_file())
    # Three analyses per trace: stride histogram, vectorizability, run lengths.
    assert written == ["analysis"] * 3 * len(ALL_BENCHMARKS) + ["stats"]
    assert sorted(path.name for path in cold.iterdir()) == ["analysis", "stats"]
