"""Disk-cache self-healing, proven per section via injected corruption.

The cache's contract is that anything unreadable on disk degrades to a
miss — never an exception, never a wrong answer — and that the bad file
is dropped so a clean rewrite takes its place.  The ``cache.store``
fault site corrupts entries *as they are written*, which exercises the
exact artifacts real torn writes leave behind (truncated JSON, foreign
bytes, vanished files, orphaned ``*.tmp``) across five sections:
stats, traces, soa predecodes, trace analyses and the fuzz corpus.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import diskcache, runner
from repro.pipeline.stats import SimStats
from repro.verify import faults
from repro.workloads.spec95 import cached_trace

CORRUPTIONS = ("truncate", "garbage", "delete")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runner.clear_memo()
    faults.clear()
    yield tmp_path / "cache"
    faults.clear()
    runner.clear_memo()


def _corrupting(section, action):
    return faults.injected(
        [{"site": "cache.store", "action": action, "match": {"section": section}}]
    )


# Each case: (key, store, load, payload-equality predicate).  Assertions
# are key-specific — other machinery (cached_trace) may legitimately
# write its own entries into the same section.
def _stats_case():
    key = "deadbeef" * 8
    stats = SimStats()
    return (
        key,
        lambda: diskcache.store_stats(key, stats),
        lambda: diskcache.load_stats_entry(key),
        lambda loaded: dataclasses.asdict(loaded) == dataclasses.asdict(stats),
    )


def _trace_case():
    key = "cafebabe" * 8
    trace = cached_trace("li", 1_500)  # obtained *before* any fault is armed
    return (
        key,
        lambda: diskcache.store_trace(key, trace),
        lambda: diskcache.load_cached_trace(key),
        lambda loaded: len(loaded.entries) == len(trace.entries),
    )


def _soa_case():
    key = "deadc0de" * 8
    trace = cached_trace("li", 1_500)  # obtained *before* any fault is armed
    soa = trace.soa()
    return (
        key,
        lambda: diskcache.store_soa(key, soa),
        lambda: diskcache.load_soa(key),
        lambda loaded: loaded.kind == soa.kind and loaded.bkind == soa.bkind,
    )


def _analysis_case():
    key = diskcache.analysis_key("stride_histogram", "li", 1_500, 0)
    result = {"0": 0.25, "1": 0.75}
    return (
        key,
        lambda: diskcache.store_analysis(key, result),
        lambda: diskcache.load_analysis(key),
        lambda loaded: loaded == result,
    )


def _corpus_case():
    payload = {"genome": {"loops": 2}, "coverage": {"vectorize": 3}}
    key = diskcache.corpus_key(payload)
    return (
        key,
        lambda: diskcache.store_corpus_entry(key, payload),
        lambda: diskcache.load_corpus_entry(key),
        lambda loaded: loaded == payload,
    )


CASES = {
    "stats": _stats_case,
    "trace": _trace_case,
    "soa": _soa_case,
    "analysis": _analysis_case,
    "corpus": _corpus_case,
}

#: section -> (cache subdirectory, entry suffix)
LAYOUT = {
    "stats": ("stats", ".json"),
    "trace": ("traces", ".jsonl"),
    "soa": ("soa", ".soa"),
    "analysis": ("analysis", ".json"),
    "corpus": ("corpus", ".json"),
}


@pytest.mark.parametrize("section", sorted(CASES))
@pytest.mark.parametrize("action", CORRUPTIONS)
def test_corrupt_entry_reads_as_miss_and_heals(cache_dir, section, action):
    key, store, load, matches = CASES[section]()
    subdir, suffix = LAYOUT[section]
    entry = cache_dir / subdir / f"{key}{suffix}"

    with _corrupting(section, action):
        store()
    # The corrupted (or vanished) entry is a miss, and the reader drops
    # whatever was left behind.
    assert load() is None
    assert not entry.exists()

    # With the fault gone, the same store/load round-trips cleanly.
    store()
    loaded = load()
    assert loaded is not None and matches(loaded)
    assert entry.exists()


@pytest.mark.parametrize("section", sorted(CASES))
def test_orphaned_tmp_files_are_inert_and_swept(cache_dir, section):
    key, store, load, matches = CASES[section]()
    subdir, suffix = LAYOUT[section]
    entry = cache_dir / subdir / f"{key}{suffix}"

    with _corrupting(section, "tmp_leftover"):
        store()
    # An orphaned temp file (a writer that died between mkstemp and
    # os.replace) sits beside a perfectly good entry: reads are unharmed.
    loaded = load()
    assert loaded is not None and matches(loaded)
    orphans = list((cache_dir / subdir).glob("*.tmp"))
    assert len(orphans) == 1

    # `cache clear` sweeps orphans along with the entries.
    diskcache.clear_cache(section=section)
    assert list((cache_dir / subdir).glob("*.tmp")) == []
    assert not entry.exists()
    assert load() is None


@pytest.mark.parametrize("section", ["stats", "analysis", "corpus"])
@pytest.mark.parametrize("content", ["[]", "7", '"entry"', "null"])
def test_json_entry_that_is_not_an_object_reads_as_miss(cache_dir, section, content):
    key, store, load, matches = CASES[section]()
    subdir, suffix = LAYOUT[section]
    entry = cache_dir / subdir / f"{key}{suffix}"
    store()
    entry.write_text(content)
    assert load() is None
    assert not entry.exists()


def test_corrupted_stats_entry_heals_end_to_end(cache_dir):
    # The full path: a grid-point store is corrupted on disk, the next
    # fresh-process read misses, re-simulates bit-identically and
    # rewrites the entry.
    point = ("li", 4, 1, "V", 1_500, True)
    with _corrupting("stats", "truncate"):
        reference = dataclasses.asdict(runner.compute_point(point))
    runner.clear_memo()
    healed = runner.compute_point(point)
    assert dataclasses.asdict(healed) == reference
    (entry,) = sorted((cache_dir / "stats").glob("*.json"))
    assert entry.stat().st_size > 0
    runner.clear_memo()
    again = runner.compute_point(point)
    assert dataclasses.asdict(again) == reference
    # Valid JSON of the wrong shape is corruption too: recomputed, rewritten.
    entry.write_text("[]")
    runner.clear_memo()
    assert dataclasses.asdict(runner.compute_point(point)) == reference
    assert json.loads(entry.read_text())["stats"] == reference
