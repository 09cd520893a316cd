"""L1/L2/memory latency chain and MSHR behaviour."""

from repro.memory import HierarchyConfig, MemoryHierarchy


def test_l1_hit_latency():
    h = MemoryHierarchy()
    h.data_access(0, now=0)  # cold fill
    ready = h.data_access(0, now=100)
    assert ready == 101  # Table 1: 1-cycle L1 hit


def test_l1_miss_l2_hit_latency():
    h = MemoryHierarchy()
    h.data_access(0, now=0)  # fills L1 and L2
    # Evict line 0 from L1 only: L1D is 2-way 1024 sets; two more lines in
    # the same set push it out.
    set_stride = 32 * 1024  # line_bytes * num_sets
    h.data_access(set_stride, now=50)
    h.data_access(2 * set_stride, now=60)
    ready = h.data_access(0, now=200)
    assert ready == 200 + 1 + 6  # L1 hit time + L2 hit time


def test_cold_miss_goes_to_memory():
    h = MemoryHierarchy()
    ready = h.data_access(0, now=0)
    assert ready == 0 + 1 + 6 + 18  # L1 + L2 + memory (Table 1)


def test_mshr_merges_same_line():
    h = MemoryHierarchy()
    first = h.data_access(0, now=0)
    second = h.data_access(8, now=1)  # same 32B line, still in flight
    assert second == first
    assert h.outstanding_misses(1) == 1


def test_mshr_limit_returns_none():
    config = HierarchyConfig(max_outstanding_misses=2)
    h = MemoryHierarchy(config)
    assert h.data_access(0, now=0) is not None
    assert h.data_access(64, now=0) is not None
    assert h.data_access(128, now=0) is None  # all MSHRs busy
    # After the fills complete, new misses are accepted again.
    assert h.data_access(128, now=100) is not None


def test_mshr_reaping():
    h = MemoryHierarchy()
    h.data_access(0, now=0)
    assert h.outstanding_misses(0) == 1
    assert h.outstanding_misses(1000) == 0


def test_inst_access_hit_and_miss():
    h = MemoryHierarchy()
    cold = h.inst_access(0, now=0)
    assert cold == 6  # I-cache miss
    warm = h.inst_access(0, now=10)
    assert warm == 11  # hit


def test_write_allocates_dirty():
    h = MemoryHierarchy()
    h.data_access(0, now=0, is_write=True)
    assert h.l1d.probe(0)
    # A second write hits.
    assert h.data_access(0, now=100, is_write=True) == 101


def test_stats_accumulate():
    h = MemoryHierarchy()
    h.data_access(0, now=0)
    h.data_access(0, now=100)
    assert h.l1d.stats.hits == 1
    assert h.l1d.stats.misses == 1


def test_all_busy_retry_rolls_back_miss_stat():
    # A rejected access (every MSHR busy with another line) must not count
    # as an L1 miss: the retry will probe again and would double-count.
    h = MemoryHierarchy(HierarchyConfig(max_outstanding_misses=1))
    h.data_access(0, now=0)
    misses_before = h.l1d.stats.misses
    assert h.data_access(64, now=1) is None
    assert h.l1d.stats.misses == misses_before
    # The line was NOT filled by the rejected attempt.
    assert not h.l1d.probe(64)


def test_all_busy_retry_succeeds_after_fill_completes():
    h = MemoryHierarchy(HierarchyConfig(max_outstanding_misses=1))
    ready = h.data_access(0, now=0)
    assert h.data_access(64, now=ready - 1) is None  # still in flight
    retried = h.data_access(64, now=ready)  # MSHR reaped exactly at ready
    assert retried == ready + 1 + 6 + 18


def test_mshr_merge_has_no_cache_side_effects():
    # A merged access rides the in-flight fill: no L1/L2 lookup, no stats.
    h = MemoryHierarchy()
    first = h.data_access(0, now=0)
    l1_hits, l1_misses = h.l1d.stats.hits, h.l1d.stats.misses
    l2_hits, l2_misses = h.l2.stats.hits, h.l2.stats.misses
    assert h.data_access(24, now=3) == first  # same 32B line
    assert (h.l1d.stats.hits, h.l1d.stats.misses) == (l1_hits, l1_misses)
    assert (h.l2.stats.hits, h.l2.stats.misses) == (l2_hits, l2_misses)
    assert h.outstanding_misses(3) == 1  # merged, not a second MSHR


def test_mshr_merge_write_joins_read_fill():
    h = MemoryHierarchy(HierarchyConfig(max_outstanding_misses=1))
    first = h.data_access(0, now=0)
    # With the single MSHR busy, a same-line write merges rather than
    # being rejected.
    assert h.data_access(8, now=1, is_write=True) == first
