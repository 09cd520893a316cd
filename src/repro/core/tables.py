"""Generic set-associative, LRU-replaced lookup table.

Both hardware tables the paper adds — the Table of Loads (4-way x 512
sets) and the Vector Register Map Table (4-way x 64 sets) — are
PC-indexed set-associative structures; this class captures the shared
indexing/LRU/eviction behaviour so each table only implements its payload
semantics.
"""

from __future__ import annotations

from typing import Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class SetAssocTable(Generic[T]):
    """A ``ways`` x ``sets`` table keyed by PC with per-set LRU."""

    def __init__(self, ways: int, sets: int) -> None:
        if ways < 1 or sets < 1:
            raise ValueError("ways and sets must be positive")
        self.ways = ways
        self.sets = sets
        # Each set is a list of (pc, payload), MRU first.
        self._sets: List[List[Tuple[int, T]]] = [[] for _ in range(sets)]
        self.evictions = 0

    def lookup(self, pc: int) -> Optional[T]:
        """Return the payload for ``pc`` (refreshing LRU), or None."""
        bucket = self._sets[pc % self.sets]
        if bucket:
            head = bucket[0]
            if head[0] == pc:  # MRU hit: no LRU churn, no scan
                return head[1]
            for i in range(1, len(bucket)):
                item = bucket[i]
                if item[0] == pc:
                    bucket.insert(0, bucket.pop(i))
                    return item[1]
        return None

    def peek(self, pc: int) -> Optional[T]:
        """Like :meth:`lookup` but without touching LRU state."""
        bucket = self._sets[pc % self.sets]
        if bucket:
            head = bucket[0]
            if head[0] == pc:
                return head[1]
            for item in bucket:
                if item[0] == pc:
                    return item[1]
        return None

    def insert(self, pc: int, payload: T) -> Optional[T]:
        """Install ``payload`` for ``pc``; returns any evicted payload.

        Replaces an existing entry for the same PC without eviction.
        """
        bucket = self._sets[pc % self.sets]
        for i, (key, _) in enumerate(bucket):
            if key == pc:
                bucket.pop(i)
                bucket.insert(0, (pc, payload))
                return None
        evicted: Optional[T] = None
        if len(bucket) >= self.ways:
            _, evicted = bucket.pop()
            self.evictions += 1
        bucket.insert(0, (pc, payload))
        return evicted

    def invalidate(self, pc: int) -> Optional[T]:
        """Remove the entry for ``pc``; returns its payload if present."""
        bucket = self._sets[pc % self.sets]
        for i, (key, payload) in enumerate(bucket):
            if key == pc:
                bucket.pop(i)
                return payload
        return None

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def occupancy(self) -> float:
        """Filled fraction of the table's ``ways * sets`` capacity."""
        return len(self) / (self.ways * self.sets)

    def items(self):
        """Iterate all ``(pc, payload)`` pairs (MRU-first within sets)."""
        for bucket in self._sets:
            for key, payload in bucket:
                yield key, payload
