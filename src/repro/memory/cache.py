"""Set-associative cache model with LRU replacement and write-back.

This models *contents and hit/miss behaviour* only; latencies, ports and
outstanding-miss limits are composed on top by
:class:`repro.memory.hierarchy.MemoryHierarchy`.  All addresses handed to a
cache are byte addresses; the cache reduces them to line addresses
internally.

Geometry defaults follow Table 1 of the paper (64KB 2-way 32B-line L1D,
64KB 2-way 64B-line L1I, 256KB 4-way 32B-line L2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/writeback counters for one cache."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def to_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (metrics recording / reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
        }


class Cache:
    """One level of set-associative cache.

    Args:
        size_bytes: total capacity.
        assoc: number of ways.
        line_bytes: line size (power of two).
        name: label used in stats reporting.
    """

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int, name: str = "") -> None:
        if size_bytes % (assoc * line_bytes):
            raise ValueError("cache size must be a multiple of assoc * line size")
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.name = name
        self.num_sets = size_bytes // (assoc * line_bytes)
        # Per-set: list of line addresses in LRU order (index 0 = MRU),
        # created when the set is first filled (None until then: a run
        # touches a fraction of the sets, and an empty list per set up
        # front would be most of a machine's construction time); and a
        # dirty-bit map.
        self._sets: List[Optional[List[int]]] = [None] * self.num_sets
        self._dirty: Dict[int, bool] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """Line-aligned address containing byte ``addr``."""
        return addr - (addr % self.line_bytes)

    def _set_index(self, line: int) -> int:
        return (line // self.line_bytes) % self.num_sets

    # ------------------------------------------------------------------

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        line = self.line_addr(addr)
        way = self._sets[self._set_index(line)]
        return way is not None and line in way

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; returns True on hit.

        A hit refreshes LRU (and sets the dirty bit on writes).  A miss
        records the miss but does *not* fill — the hierarchy decides when
        the fill completes and calls :meth:`fill`, so that latency and
        MSHR behaviour stay out of this class.
        """
        line_bytes = self.line_bytes
        line = addr - (addr % line_bytes)
        way = self._sets[(line // line_bytes) % self.num_sets]
        if way:
            # MRU fast path: most accesses re-touch the most recent line of
            # the set, where the LRU order is already correct.
            if way[0] == line:
                if is_write:
                    self._dirty[line] = True
                self.stats.hits += 1
                return True
            if line in way:
                way.remove(line)
                way.insert(0, line)
                if is_write:
                    self._dirty[line] = True
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        return False

    def fill(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Insert the line for ``addr``; returns the evicted dirty line (or None).

        Evicting a clean line returns None.  A dirty eviction bumps the
        writeback counter and returns the victim's line address so the
        hierarchy can charge the write-back traffic.
        """
        line = self.line_addr(addr)
        index = self._set_index(line)
        way = self._sets[index]
        if way is None:
            way = self._sets[index] = []
        victim = None
        if line in way:
            way.remove(line)
        elif len(way) >= self.assoc:
            victim_line = way.pop()
            if self._dirty.pop(victim_line, False):
                self.stats.writebacks += 1
                victim = victim_line
        way.insert(0, line)
        if dirty:
            self._dirty[line] = True
        return victim

    def invalidate_all(self) -> None:
        """Drop all contents (used between independent simulations)."""
        self._sets = [None] * self.num_sets
        self._dirty.clear()
