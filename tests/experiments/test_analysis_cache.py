"""The Fig 1 / Fig 3 trace analyses through the disk cache's analysis section.

Both figures are pure functions of each benchmark's trace and the
``analysis`` sources, so a warm run must give the cold run's rows without
building a single trace; an edit to a hashed analysis source must miss;
and a damaged entry must read as a miss and be rewritten, like every
other section.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.experiments import diskcache
from repro.experiments.figures import FIGURES
from repro.pipeline.stats import SimStats
from repro.workloads import spec95
from repro.workloads.spec95 import release_trace
from repro.workloads.suite import ALL_BENCHMARKS

SCALE = 1_500
#: analyses one trace load computes: the stride histogram, the
#: vectorizability counts and the constant-stride run lengths.
ANALYSES = 3


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    _release_traces()
    diskcache.COUNTERS.reset()
    yield tmp_path / "cache"
    _release_traces()


def _release_traces():
    for name in ALL_BENCHMARKS:
        release_trace(name, SCALE)


def _rows():
    return FIGURES["fig01"].rows(SCALE), FIGURES["fig03"].rows(SCALE)


@pytest.fixture
def builds(monkeypatch):
    """Counts the traces built (``run_program`` calls) from here on."""
    calls = []
    run_program = spec95.run_program

    def counting(program, **kwargs):
        calls.append(program)
        return run_program(program, **kwargs)

    monkeypatch.setattr(spec95, "run_program", counting)
    return calls


def _entry(cache_dir, analysis, name):
    return cache_dir / "analysis" / f"{diskcache.analysis_key(analysis, name, SCALE, 0)}.json"


def test_warm_rows_equal_cold_and_build_no_trace(cache_dir, builds):
    cold = _rows()
    assert len(builds) == len(ALL_BENCHMARKS)
    assert diskcache.COUNTERS.analysis_misses == ANALYSES * len(ALL_BENCHMARKS)
    assert len(list((cache_dir / "analysis").glob("*.json"))) == ANALYSES * len(ALL_BENCHMARKS)

    _release_traces()
    diskcache.COUNTERS.reset()
    builds.clear()
    warm = _rows()
    assert warm == cold
    assert json.dumps(warm) == json.dumps(cold)  # key order too
    assert builds == []
    assert diskcache.COUNTERS.analysis_hits == 2 * len(ALL_BENCHMARKS)
    assert diskcache.COUNTERS.analysis_misses == 0


def test_editing_an_analysis_source_misses(cache_dir, monkeypatch, tmp_path):
    cold = _rows()
    old_key = diskcache.analysis_key("stride_histogram", "li", SCALE, 0)

    # An edited file in the hashed ``analysis`` package.
    edited = tmp_path / "edited.py"
    edited.write_text("# an edit\n")
    package_files = diskcache._package_files
    monkeypatch.setattr(
        diskcache, "_package_files",
        lambda package: package_files(package) + ([edited] if package == "analysis" else []),
    )
    monkeypatch.setattr(diskcache, "_DIGEST_MEMO", {})
    assert diskcache.analysis_key("stride_histogram", "li", SCALE, 0) != old_key

    diskcache.COUNTERS.reset()
    assert _rows() == cold
    # Fig 1's misses probe and rewrite every analysis; Fig 3 reads its own.
    assert diskcache.COUNTERS.analysis_hits == len(ALL_BENCHMARKS)
    assert diskcache.COUNTERS.analysis_misses == ANALYSES * len(ALL_BENCHMARKS)


def test_truncated_entry_is_rebuilt_and_rewritten(cache_dir):
    cold = _rows()
    entry = _entry(cache_dir, "vectorizability", "li")
    good = entry.read_text()
    entry.write_text(good[: len(good) // 2])

    diskcache.COUNTERS.reset()
    assert _rows() == cold
    assert diskcache.COUNTERS.analysis_misses == 1
    assert entry.read_text() == good


def test_cache_info_and_clear_know_the_section(cache_dir, capsys):
    _rows()
    diskcache.store_stats("deadbeef" * 8, SimStats())
    capsys.readouterr()
    assert main(["cache", "info"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (line,) = [line for line in lines if line.startswith("analysis:")]
    assert f"{ANALYSES * len(ALL_BENCHMARKS)} entries" in line

    assert main(["cache", "clear", "--section", "analysis"]) == 0
    assert capsys.readouterr().out.strip() == (
        f"removed {ANALYSES * len(ALL_BENCHMARKS)} analysis cache entries"
    )
    assert list((cache_dir / "analysis").glob("*.json")) == []
    assert list((cache_dir / "stats").glob("*.json"))  # other sections untouched
