"""The ``soa`` disk-cache section: warm runs skip the trace predecode.

The functional trace is already persisted across processes; the SoA
section extends that to the :class:`~repro.functional.trace.TraceSoA`
predecode derived from it, with its own layout version.  Contracts
proven here:

* a warm load attaches a predecode bit-identical to a fresh build and
  performs **zero** per-entry build scans (the ``SOA_BUILDS`` counter);
* bumping ``SOA_FORMAT_VERSION`` both re-keys the section (old entries
  orphaned) and makes old payloads unreadable (a key collision can never
  resurrect a stale layout);
* a missing/corrupt soa entry degrades to a rebuild-and-rewrite, never
  an error (the torn-write matrix lives in ``test_cache_selfheal.py``).
"""

from __future__ import annotations

import pytest

import repro.functional.trace as trace_mod
from repro.experiments import diskcache
from repro.functional import traceio
from repro.functional.trace import TraceSoA
from repro.workloads.spec95 import cached_trace, release_trace

SCALE = 1_500


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    release_trace("li", SCALE)
    diskcache.COUNTERS.reset()
    yield tmp_path / "cache"
    release_trace("li", SCALE)


def test_cold_run_stores_soa_beside_trace(cache_dir):
    before = trace_mod.SOA_BUILDS
    cached_trace("li", SCALE)
    assert trace_mod.SOA_BUILDS == before + 1
    assert diskcache.COUNTERS.soa_stores == 1
    assert list((cache_dir / "soa").glob("*.soa"))


def test_warm_run_skips_predecode(cache_dir):
    cached_trace("li", SCALE)  # cold: builds + stores
    release_trace("li", SCALE)  # force the disk path, same process
    before = trace_mod.SOA_BUILDS
    trace = cached_trace("li", SCALE)
    soa = trace.soa()
    # The predecode came off disk: no per-entry build scan happened.
    assert trace_mod.SOA_BUILDS == before
    assert diskcache.COUNTERS.soa_hits == 1
    # And it is bit-identical to a fresh build over the same entries.
    fresh = TraceSoA(trace.entries)
    for name in TraceSoA.__slots__:
        assert getattr(soa, name) == getattr(fresh, name), name


def test_format_bump_rekeys_and_rejects_stale_payloads(cache_dir, monkeypatch):
    cached_trace("li", SCALE)
    old_key = diskcache.soa_key("li", SCALE, 0)
    assert diskcache.load_soa(old_key) is not None

    monkeypatch.setattr(traceio, "SOA_FORMAT_VERSION", traceio.SOA_FORMAT_VERSION + 1)
    # The key changes, so the old entry is simply never looked up ...
    new_key = diskcache.soa_key("li", SCALE, 0)
    assert new_key != old_key
    assert diskcache.load_soa(new_key) is None
    # ... and even a direct read of the old entry (a hypothetical key
    # collision) rejects the stale layout and drops the file.
    assert diskcache.load_soa(old_key) is None
    assert not (cache_dir / "soa" / f"{old_key}.soa").exists()


def test_missing_soa_entry_heals_on_next_warm_load(cache_dir):
    cached_trace("li", SCALE)
    key = diskcache.soa_key("li", SCALE, 0)
    (cache_dir / "soa" / f"{key}.soa").unlink()
    release_trace("li", SCALE)
    before = trace_mod.SOA_BUILDS
    trace = cached_trace("li", SCALE)
    # Rebuilt once from the warm trace and rewritten to disk.
    assert trace_mod.SOA_BUILDS == before + 1
    assert (cache_dir / "soa" / f"{key}.soa").exists()
    assert trace.soa() is not None
