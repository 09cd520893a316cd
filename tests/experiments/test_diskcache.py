"""Persistent result cache: keying, invalidation, robustness.

The disk cache may only ever serve a result that the simulator would
recompute bit-for-bit: its key must change whenever anything feeding the
result changes (configuration, scale, simulator sources), and anything
unreadable on disk must degrade to a miss, never to an exception or a
wrong answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import pytest

from repro.experiments import diskcache, runner
from repro.experiments.parallel import GridPoint

SCALE = 1_500
POINT = ("li", 4, 1, "V", SCALE, True, ())


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Private, enabled cache directory plus a cold memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    runner.clear_memo()
    yield tmp_path / "cache"
    runner.clear_memo()


def _stats_files(cache_dir):
    stats_dir = cache_dir / "stats"
    return sorted(stats_dir.glob("*.json")) if stats_dir.is_dir() else []


def test_second_process_equivalent_hits_disk(cache_dir):
    first = runner.compute_point(POINT)
    assert len(_stats_files(cache_dir)) == 1
    before = runner.simulations_run()
    runner.clear_memo()  # simulate a fresh process, disk intact
    second = runner.compute_point(POINT)
    assert runner.simulations_run() == before  # pure disk hit
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_key_depends_on_config_scale_and_sources(monkeypatch):
    name, scale, seed = "li", SCALE, 0
    config = runner.point_config(4, 1, "V")
    base = diskcache.stats_key(name, scale, seed, config)

    assert diskcache.stats_key(name, scale + 1, seed, config) != base
    assert diskcache.stats_key(name, scale, seed + 1, config) != base
    assert diskcache.stats_key("compress", scale, seed, config) != base

    other = runner.point_config(4, 2, "V")
    assert diskcache.stats_key(name, scale, seed, other) != base
    nested = runner.point_config(4, 1, "V", block_on_scalar_operand=False)
    assert diskcache.stats_key(name, scale, seed, nested) != base

    # Editing any simulator source orphans old entries.
    monkeypatch.setitem(
        diskcache._DIGEST_MEMO, diskcache._STATS_SOURCE_PACKAGES, "tampered"
    )
    assert diskcache.stats_key(name, scale, seed, config) != base


def test_stats_key_hashes_the_sorted_payload():
    """The key text is assembled around a pre-rendered fingerprint; it
    must stay the sorted-keys JSON of the whole payload, byte for byte,
    so entries written by earlier versions still hit."""
    for name, scale, seed, shape in (
        ("li", SCALE, 0, (4, 1, "V", True)),
        ("tomcatv", 12_000, 3, (8, 4, "noIM", False)),
    ):
        config = runner.point_config(*shape)
        payload = {
            "format": diskcache.CACHE_FORMAT,
            "kind": "stats",
            "benchmark": name,
            "scale": scale,
            "seed": seed,
            "config": dataclasses.asdict(config),
            "source": diskcache.source_digest("stats"),
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        expected = hashlib.sha256(blob.encode()).hexdigest()
        assert diskcache.stats_key(name, scale, seed, config) == expected


def test_point_cache_key_matches_unmemoized_key(monkeypatch):
    """The per-shape fingerprint memo never changes a key: every grid
    shape's key equals the one derived from a fresh config, on first
    sight and once memoized, so entries written before the memo still
    hit."""
    name = "li"
    shapes = itertools.product((4, 8), runner.PORT_COUNTS, runner.MODES, (True, False))
    for width, ports, mode, block in shapes:
        point = (name, width, ports, mode, SCALE, block, ())
        fresh = diskcache.stats_key(
            name, SCALE, 0, runner.point_config(width, ports, mode, block)
        )
        assert runner.point_cache_key(point) == fresh
        assert runner.point_cache_key(point) == fresh  # memoized shape

    # The source digest is still read per call: a source edit moves the
    # key of a shape whose fingerprint is already memoized.
    point = (name, 4, 1, "V", SCALE, True, ())
    before = runner.point_cache_key(point)
    monkeypatch.setitem(
        diskcache._DIGEST_MEMO, diskcache._STATS_SOURCE_PACKAGES, "tampered"
    )
    assert runner.point_cache_key(point) != before


def test_point_without_overrides_keeps_its_stats_key():
    """``overrides=()`` adds nothing to a point's identity: its key is the
    one derived from the plain config, so entries written before points
    carried overrides still hit."""
    for block in (True, False):
        point = GridPoint("li", 4, 1, "V", SCALE, block, overrides=())
        expected = diskcache.stats_key(
            "li", SCALE, 0, runner.point_config(4, 1, "V", block)
        )
        assert runner.point_cache_key(point) == expected


def test_override_moves_the_key_to_the_overridden_config():
    plain = GridPoint("li", 4, 1, "V", SCALE)
    point = plain._replace(overrides=(("vector_length", 8),))
    config = runner.point_config(4, 1, "V")
    config.vector.vector_length = 8
    assert runner.point_cache_key(point) == diskcache.stats_key("li", SCALE, 0, config)
    assert runner.point_cache_key(point) != runner.point_cache_key(plain)


def test_stats_to_dict_equals_asdict_and_shares_nothing(cache_dir):
    stats = runner.compute_point(POINT)
    assert stats.usefulness, "a V point should report bus usefulness"
    payload = diskcache.stats_to_dict(stats)
    reference = dataclasses.asdict(stats)
    assert payload == reference
    assert list(payload) == list(reference)  # same key order

    payload["usefulness"]["tampered"] = 1.0
    payload["cycles"] += 1
    assert dataclasses.asdict(stats) == reference


def test_corrupted_entry_is_a_miss_and_heals(cache_dir):
    reference = dataclasses.asdict(runner.compute_point(POINT))
    (entry,) = _stats_files(cache_dir)

    for poison in ("", "{trunca", json.dumps({"format": 999}), json.dumps({"format": 1, "stats": {"committed": 1}})):
        entry.write_text(poison)
        runner.clear_memo()
        healed = runner.compute_point(POINT)
        assert dataclasses.asdict(healed) == reference
        # The bad file was dropped and replaced by the re-simulated result.
        (rewritten,) = _stats_files(cache_dir)
        assert rewritten == entry
        assert json.loads(entry.read_text())["format"] == diskcache.CACHE_FORMAT


def test_entry_with_persisted_metrics_still_hits(cache_dir):
    """Entries written while observed runs persisted their registry carry
    a ``metrics`` object next to the stats; the reader ignores it."""
    reference = dataclasses.asdict(runner.compute_point(POINT))
    (entry,) = _stats_files(cache_dir)
    payload = json.loads(entry.read_text())
    assert "metrics" not in payload
    payload["metrics"] = {
        "engine.vrmt.orphaned_registers": {"kind": "gauge", "data": 3},
        "sim.committed": {"kind": "counter", "data": SCALE},
    }
    entry.write_text(json.dumps(payload))

    hits = diskcache.COUNTERS.stats_hits
    before = runner.simulations_run()
    loaded = diskcache.load_stats_entry(runner.point_cache_key(POINT))
    assert diskcache.COUNTERS.stats_hits == hits + 1
    assert dataclasses.asdict(loaded) == reference
    assert runner.compute_point(POINT) == loaded
    assert runner.simulations_run() == before
    assert entry.exists()


def test_disabled_cache_writes_nothing(cache_dir, monkeypatch):
    monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
    runner.compute_point(POINT)
    assert not diskcache.cache_enabled()
    assert _stats_files(cache_dir) == []


def test_cache_info_and_clear(cache_dir):
    runner.compute_point(POINT)
    info = diskcache.cache_info()
    assert info["enabled"] and info["root"] == str(cache_dir)
    assert info["stats_entries"] == 1 and info["stats_bytes"] > 0
    assert diskcache.clear_cache() >= 1
    assert diskcache.cache_info()["stats_entries"] == 0
