"""The L1 / L2 / main-memory latency chain with outstanding-miss tracking.

Latencies follow Table 1 of the paper:

* L1 data hit: 1 cycle; L1 miss that hits L2: +6 cycles (L2 hit time);
  L2 miss: +18 cycles (memory).
* L1 instruction hit: 1 cycle; miss: 6 cycles.
* Up to 16 outstanding L1D misses (MSHRs); accesses that need a new MSHR
  when all are busy must retry.  Misses to a line already outstanding
  merge into the existing MSHR (no extra traffic, same ready time).

The hierarchy exposes a single question the pipeline needs answered:
"if this access starts now, when is the data ready?" — via
:meth:`data_access` / :meth:`inst_access`.  The caller is responsible for
port arbitration (see :mod:`repro.memory.ports`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..observe.events import CACHE_MISS, MSHR_MERGE
from .cache import Cache

#: ``_first_fill`` with no miss outstanding.
_NO_FILL = float("inf")


@dataclass
class HierarchyConfig:
    """Sizes and latencies of the memory system (defaults = Table 1)."""

    l1d_size: int = 64 * 1024
    l1d_assoc: int = 2
    l1d_line: int = 32
    l1d_hit_latency: int = 1

    l1i_size: int = 64 * 1024
    l1i_assoc: int = 2
    l1i_line: int = 64
    l1i_hit_latency: int = 1
    l1i_miss_latency: int = 6

    l2_size: int = 256 * 1024
    l2_assoc: int = 4
    l2_line: int = 32
    l2_hit_latency: int = 6
    memory_latency: int = 18

    max_outstanding_misses: int = 16


class MemoryHierarchy:
    """Composed L1I + L1D + L2 + memory with MSHR-limited D-side misses."""

    def __init__(self, config: Optional[HierarchyConfig] = None) -> None:
        self.config = config or HierarchyConfig()
        c = self.config
        self.l1d = Cache(c.l1d_size, c.l1d_assoc, c.l1d_line, "L1D")
        self.l1i = Cache(c.l1i_size, c.l1i_assoc, c.l1i_line, "L1I")
        self.l2 = Cache(c.l2_size, c.l2_assoc, c.l2_line, "L2")
        #: line address -> cycle at which the outstanding fill completes.
        self._mshrs: Dict[int, int] = {}
        #: the earliest of those cycles: before it a reap frees nothing,
        #: so accesses skip it.
        self._first_fill = _NO_FILL
        self._l1d_line = c.l1d_line
        #: optional trace bus (set by the machine when tracing is on);
        #: hit paths never touch it — only miss/merge branches test it.
        self.bus = None

    # ------------------------------------------------------------------

    def _reap_mshrs(self, now: int) -> None:
        mshrs = self._mshrs
        for line in [line for line, ready in mshrs.items() if ready <= now]:
            del mshrs[line]
        self._first_fill = min(mshrs.values(), default=_NO_FILL)

    # ------------------------------------------------------------------

    def data_access(self, addr: int, now: int, is_write: bool = False) -> Optional[int]:
        """Access the data side at cycle ``now``; return data-ready cycle.

        Returns None when the access cannot start because every MSHR is
        busy with a different line — the caller must retry on a later
        cycle (the port is *not* considered consumed in that case).
        """
        c = self.config
        if now >= self._first_fill:
            self._reap_mshrs(now)
        mshrs = self._mshrs
        line = addr - addr % self._l1d_line
        ready = mshrs.get(line)
        if ready is not None:
            # Merge with the in-flight fill for the same line.
            if self.bus is not None:
                self.bus.emit(now, MSHR_MERGE, line=line, write=is_write)
            return ready
        if self.l1d.access(addr, is_write):
            return now + c.l1d_hit_latency
        # L1 miss: need an MSHR.
        if len(mshrs) >= c.max_outstanding_misses:
            # Undo the pessimistic miss count? No: a structural retry is a
            # real extra probe in hardware too; keep the statistics simple
            # by counting each attempt once at L1 only when it proceeds.
            self.l1d.stats.misses -= 1
            return None
        latency = c.l1d_hit_latency + c.l2_hit_latency
        l2_hit = self.l2.access(addr, is_write)
        if not l2_hit:
            latency += c.memory_latency
            self.l2.fill(addr, dirty=False)
        ready = now + latency
        self.l1d.fill(addr, dirty=is_write)
        mshrs[line] = ready
        if ready < self._first_fill:
            self._first_fill = ready
        if self.bus is not None:
            self.bus.emit(
                now, CACHE_MISS,
                level="L1D", line=line, write=is_write, l2_hit=l2_hit,
            )
        return ready

    def inst_access(self, addr: int, now: int) -> int:
        """Access the instruction side; returns fetch-group-ready cycle."""
        c = self.config
        if self.l1i.access(addr):
            return now + c.l1i_hit_latency
        self.l1i.fill(addr)
        if self.bus is not None:
            self.bus.emit(now, CACHE_MISS, level="L1I", line=self.l1i.line_addr(addr))
        return now + c.l1i_miss_latency

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def record_metrics(self, registry, prefix: str = "mem.") -> None:
        """End-of-run cache counters as ``mem.<cache>.<stat>`` gauges.

        Gauges (not counters): the cache stats are whole-run totals, so
        last-write-wins merging is correct.
        """
        for cache in (self.l1d, self.l1i, self.l2):
            tag = cache.name.lower()
            for stat, value in cache.stats.to_dict().items():
                registry.gauge(f"{prefix}{tag}.{stat}").set(value)
