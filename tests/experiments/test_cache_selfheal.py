"""Disk-cache self-healing, proven per section via injected corruption.

The cache's contract is that anything unreadable on disk degrades to a
miss — never an exception, never a wrong answer — and that the bad file
is dropped so a clean rewrite takes its place.  The ``cache.store``
fault site corrupts entries *as they are written*, which exercises the
exact artifacts real torn writes leave behind (truncated JSON, foreign
bytes, vanished files, orphaned ``*.tmp``) across three sections:
stats, trace analyses and the fuzz corpus.  A full ``cache clear`` also
sweeps the directories of the retired trace and soa sections.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import diskcache, runner
from repro.pipeline.stats import SimStats
from repro.verify import faults

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
# are key-specific — other machinery may legitimately write its own
# entries into the same section.
def _stats_case():
    key = "deadbeef" * 8
    stats = SimStats()
    return (
        key,
        lambda: diskcache.store_stats(key, stats),
        lambda: diskcache.load_stats_entry(key),
        lambda loaded: dataclasses.asdict(loaded) == dataclasses.asdict(stats),
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
    "analysis": _analysis_case,
    "corpus": _corpus_case,
}

#: section -> (cache subdirectory, entry suffix)
LAYOUT = {
    "stats": ("stats", ".json"),
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


def test_full_clear_sweeps_the_retired_trace_and_soa_sections(cache_dir):
    # A cache written before traces were built in-process holds entries
    # and temp-file leftovers under traces/ and soa/.
    seeded = {
        "traces": ("a" * 64 + ".jsonl", "a" * 64 + ".jsonl1x2y.tmp"),
        "soa": ("b" * 64 + ".soa", "b" * 64 + ".soa3z4w.tmp"),
    }
    for subdir, names in seeded.items():
        (cache_dir / subdir).mkdir(parents=True)
        for name in names:
            (cache_dir / subdir / name).write_bytes(b"old entry")
    diskcache.store_stats("deadbeef" * 8, SimStats())

    # Neither is a section any more: `cache info` does not count them
    # and a section clear leaves them be.
    assert not [key for key in diskcache.cache_info() if key.startswith(("trace", "soa"))]
    assert diskcache.clear_cache(section="stats") == 1
    assert (cache_dir / "traces" / seeded["traces"][0]).exists()

    assert diskcache.clear_cache() == 4
    assert not (cache_dir / "traces").exists()
    assert not (cache_dir / "soa").exists()


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
    point = ("li", 4, 1, "V", 1_500, True, ())
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
