"""Set-associative cache contents model."""

import random

import pytest

from repro.memory import Cache


def make_tiny(assoc=2, line=32, sets=2):
    return Cache(size_bytes=assoc * line * sets, assoc=assoc, line_bytes=line)


def test_geometry():
    cache = Cache(64 * 1024, 2, 32)
    assert cache.num_sets == 1024


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        Cache(100, 3, 32)


def test_miss_then_hit_after_fill():
    cache = make_tiny()
    assert not cache.access(0)
    cache.fill(0)
    assert cache.access(0)
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_line_granularity():
    cache = make_tiny(line=32)
    cache.fill(0)
    assert cache.access(24)  # same 32-byte line
    assert not cache.access(32)  # next line


def test_lru_eviction():
    cache = make_tiny(assoc=2, sets=1, line=32)
    cache.fill(0)
    cache.fill(32)
    cache.access(0)  # make line 0 MRU
    cache.fill(64)  # evicts line 32 (LRU)
    assert cache.probe(0)
    assert not cache.probe(32)
    assert cache.probe(64)


def test_dirty_eviction_counts_writeback_and_returns_victim():
    cache = make_tiny(assoc=1, sets=1)
    cache.fill(0, dirty=True)
    victim = cache.fill(32)
    assert victim == 0
    assert cache.stats.writebacks == 1


def test_clean_eviction_returns_none():
    cache = make_tiny(assoc=1, sets=1)
    cache.fill(0, dirty=False)
    assert cache.fill(32) is None
    assert cache.stats.writebacks == 0


def test_write_access_sets_dirty():
    cache = make_tiny(assoc=1, sets=1)
    cache.fill(0)
    cache.access(0, is_write=True)
    assert cache.fill(32) == 0  # dirty victim


def test_sets_are_independent():
    cache = make_tiny(assoc=1, sets=2, line=32)
    cache.fill(0)  # set 0
    cache.fill(32)  # set 1
    assert cache.probe(0) and cache.probe(32)


def test_invalidate_all():
    cache = make_tiny()
    cache.fill(0)
    cache.invalidate_all()
    assert not cache.probe(0)


def test_miss_rate():
    cache = make_tiny()
    cache.access(0)
    cache.fill(0)
    cache.access(0)
    assert cache.stats.miss_rate == 0.5


def test_refill_same_line_does_not_evict():
    cache = make_tiny(assoc=2, sets=1)
    cache.fill(0)
    cache.fill(32)
    cache.fill(0)  # already present
    assert cache.probe(32)


class EagerLRU:
    """Reference model: every set is an LRU list from the start."""

    def __init__(self, size_bytes, assoc, line_bytes):
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (assoc * line_bytes)
        self.invalidate_all()
        self.hits = self.misses = self.writebacks = 0

    def invalidate_all(self):
        self.sets = [[] for _ in range(self.num_sets)]
        self.dirty = set()

    def _way(self, addr):
        line = addr - addr % self.line_bytes
        return line, self.sets[(line // self.line_bytes) % self.num_sets]

    def probe(self, addr):
        line, way = self._way(addr)
        return line in way

    def access(self, addr, is_write=False):
        line, way = self._way(addr)
        if line not in way:
            self.misses += 1
            return False
        way.remove(line)
        way.insert(0, line)
        if is_write:
            self.dirty.add(line)
        self.hits += 1
        return True

    def fill(self, addr, dirty=False):
        line, way = self._way(addr)
        victim = None
        if line in way:
            way.remove(line)
        elif len(way) >= self.assoc:
            old = way.pop()
            if old in self.dirty:
                self.dirty.discard(old)
                self.writebacks += 1
                victim = old
        way.insert(0, line)
        if dirty:
            self.dirty.add(line)
        return victim


@pytest.mark.parametrize("seed", range(4))
def test_lazy_sets_match_eager_sets(seed):
    """Sets are created on first fill; a random mix of probes, accesses,
    fills and invalidations must see the same hits, misses, LRU victims
    and writebacks as a cache whose sets all exist from the start."""
    rng = random.Random(seed)
    geometry = dict(size_bytes=2 * 32 * 8, assoc=2, line_bytes=32)
    lazy, eager = Cache(**geometry), EagerLRU(**geometry)
    # Addresses over six times the capacity: conflicts in every set.  A
    # set is probed and accessed before its first fill, and again after
    # each invalidation.
    addrs = [rng.randrange(0, 32 * 8 * 6) for _ in range(64)]
    for step in range(3000):
        addr = rng.choice(addrs)
        roll = rng.random()
        if roll < 0.3:
            assert lazy.probe(addr) == eager.probe(addr), step
        elif roll < 0.65:
            is_write = rng.random() < 0.3
            assert lazy.access(addr, is_write) == eager.access(addr, is_write), step
        elif roll < 0.995:
            dirty = rng.random() < 0.3
            assert lazy.fill(addr, dirty) == eager.fill(addr, dirty), step
        else:
            lazy.invalidate_all()
            eager.invalidate_all()
        assert (lazy.stats.hits, lazy.stats.misses, lazy.stats.writebacks) == (
            eager.hits, eager.misses, eager.writebacks
        ), step
    assert eager.writebacks > 0 and eager.hits > 0 and eager.misses > 0
