"""Each functional trace is resident only while its points run.

The serial grid runs its cold points grouped by trace and releases each
trace it loaded after that trace's last point, so it builds or loads
every trace once and holds one at a time; a trace the caller held stays
resident.  The Fig 1 / Fig 3 analyses share one load of each trace and
leave nothing resident that they loaded.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.__main__ import main
from repro.experiments import diskcache, runner
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
    """Per benchmark: traces built (``run_program``) and decoded from disk
    (``load_cached_trace`` hits); and, at each load, the traces then
    resident."""
    names = {diskcache.trace_key(name, SCALE, 0): name for name in ALL_BENCHMARKS}
    counts = {"built": Counter(), "decoded": Counter(), "resident_at_load": []}
    run_program = spec95.run_program
    build = spec95.build
    load_cached_trace = diskcache.load_cached_trace
    building = []

    def counting_build(name, scale, seed=0):
        building.append(name)
        return build(name, scale, seed)

    def counting_run(program, **kwargs):
        counts["built"][building.pop()] += 1
        counts["resident_at_load"].append(_resident())
        return run_program(program, **kwargs)

    def counting_load(key):
        trace = load_cached_trace(key)
        if trace is not None:
            counts["decoded"][names[key]] += 1
            counts["resident_at_load"].append(_resident())
        return trace

    monkeypatch.setattr(spec95, "build", counting_build)
    monkeypatch.setattr(spec95, "run_program", counting_run)
    monkeypatch.setattr(diskcache, "load_cached_trace", counting_load)
    return counts


def test_serial_grid_builds_each_trace_once_on_a_cold_cache(cold, loads):
    results = run_grid(POINTS, jobs=1)
    assert list(results) == POINTS  # request order, whatever the run order
    assert loads["built"] == Counter({"compress": 1, "li": 1})
    assert loads["decoded"] == Counter()
    assert _resident() == []


def test_serial_grid_loads_each_trace_once_from_disk(cold, loads):
    run_grid(POINTS, jobs=1)
    runner.clear_memo()
    # Fresh stats keys for the same traces: the traces are on disk, the
    # points are not.
    again = [point._replace(width=8) for point in POINTS]
    run_grid(again, jobs=1)
    assert loads["built"] == Counter({"compress": 1, "li": 1})
    assert loads["decoded"] == Counter({"compress": 1, "li": 1})


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
    assert sum(loads["built"].values()) + sum(loads["decoded"].values()) == len(
        ALL_BENCHMARKS
    )
    assert set(loads["built"]) | set(loads["decoded"]) == set(ALL_BENCHMARKS)
    assert _resident() == []
    cold_rows = capsys.readouterr().out

    # Traces on disk, analyses not: each trace is decoded once for both.
    assert main(["cache", "clear", "--section", "analysis"]) == 0
    capsys.readouterr()
    loads["decoded"].clear()
    assert main(["figures", "--only", "fig01", "fig03", "--scale", str(SCALE),
                 "--jobs", "1", "--json"]) == 0
    assert loads["decoded"] == Counter(dict.fromkeys(ALL_BENCHMARKS, 1))
    assert _resident() == []
    assert capsys.readouterr().out == cold_rows


def test_a_traced_run_releases_the_trace_it_loaded(cold):
    from repro import api

    api.trace("li", scale=SCALE, events=["validation"])
    assert _resident() == []
    held = spec95.cached_trace("li", SCALE)
    api.trace("li", scale=SCALE, events=["validation"])
    assert spec95.cached_trace("li", SCALE) is held
