"""The Fig 1 / Fig 3 trace analyses through the disk cache's analysis section.

Both figures are pure functions of each benchmark's trace and the
``analysis`` sources, so a warm run must give the cold run's rows without
decoding a single trace; an edit to a hashed analysis source must miss;
and a damaged entry must read as a miss and be rewritten, like every
other section.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.experiments import diskcache
from repro.experiments.figures import fig01_stride_distribution, fig03_vectorizable
from repro.functional import traceio
from repro.workloads.spec95 import release_trace
from repro.workloads.suite import ALL_BENCHMARKS

SCALE = 1_500


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
    return fig01_stride_distribution(SCALE), fig03_vectorizable(SCALE)


@pytest.fixture
def decodes(monkeypatch):
    """Counts trace loads and binary trace decodes from here on."""
    calls = {"load_cached_trace": 0, "loads_trace_binary": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(diskcache, "load_cached_trace")
    counting(traceio, "loads_trace_binary")
    return calls


def _entry(cache_dir, analysis, name):
    return cache_dir / "analysis" / f"{diskcache.analysis_key(analysis, name, SCALE, 0)}.json"


def test_warm_rows_equal_cold_and_decode_no_trace(cache_dir, decodes):
    cold = _rows()
    assert diskcache.COUNTERS.analysis_misses == 2 * len(ALL_BENCHMARKS)
    assert len(list((cache_dir / "analysis").glob("*.json"))) == 2 * len(ALL_BENCHMARKS)

    _release_traces()
    diskcache.COUNTERS.reset()
    decodes.update(dict.fromkeys(decodes, 0))
    warm = _rows()
    assert warm == cold
    assert json.dumps(warm) == json.dumps(cold)  # key order too
    assert decodes == {"load_cached_trace": 0, "loads_trace_binary": 0}
    assert diskcache.COUNTERS.analysis_hits == 2 * len(ALL_BENCHMARKS)
    assert diskcache.COUNTERS.analysis_misses == 0


def test_editing_an_analysis_source_misses(cache_dir, monkeypatch, tmp_path):
    cold = _rows()
    trace_key = diskcache.trace_key("li", SCALE, 0)
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
    assert diskcache.trace_key("li", SCALE, 0) == trace_key  # traces stay warm

    diskcache.COUNTERS.reset()
    assert _rows() == cold
    # Fig 1's misses probe and rewrite both analyses; Fig 3 reads them.
    assert diskcache.COUNTERS.analysis_hits == len(ALL_BENCHMARKS)
    assert diskcache.COUNTERS.analysis_misses == 2 * len(ALL_BENCHMARKS)


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
    capsys.readouterr()
    assert main(["cache", "info"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (line,) = [line for line in lines if line.startswith("analysis:")]
    assert f"{2 * len(ALL_BENCHMARKS)} entries" in line

    assert main(["cache", "clear", "--section", "analysis"]) == 0
    assert capsys.readouterr().out.strip() == (
        f"removed {2 * len(ALL_BENCHMARKS)} analysis cache entries"
    )
    assert list((cache_dir / "analysis").glob("*.json")) == []
    assert list((cache_dir / "traces").glob("*.jsonl"))  # other sections untouched
