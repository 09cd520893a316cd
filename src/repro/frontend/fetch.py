"""Trace-driven fetch unit.

Walks the dynamic trace in order, modelling:

* fetch width (at most ``width`` instructions per cycle),
* at most one taken control transfer per cycle (Table 1: "up to 1 taken
  branch"),
* I-cache hits/misses on the fetch group's line,
* the misprediction bubble: after fetching a mispredicted branch the unit
  blocks until the back end resolves the branch and calls
  :meth:`redirect` (trace-driven models cannot execute the wrong path, so
  its cost is this fetch starvation plus the configured refill penalty —
  DESIGN.md §5.1).

The back end may also rewind the unit to an arbitrary sequence number with
:meth:`redirect` when it squashes (vector misspeculation recovery, store
coherence squash) — the entries from that point are simply re-fetched.
"""

from __future__ import annotations

from typing import Optional

from ..functional.trace import Trace
from ..memory.hierarchy import MemoryHierarchy
from ..observe.events import FETCH_REDIRECT
from .branch_predictor import GsharePredictor, IndirectPredictor


class FetchUnit:
    """In-order front end feeding the dispatch stage from a trace."""

    def __init__(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        width: int,
        gshare_entries: int = 64 * 1024,
    ) -> None:
        self.trace = trace
        self.hierarchy = hierarchy
        self.width = width
        # Predecoded structure-of-arrays view of the trace (shared across
        # machines replaying the same trace) — the hot loop reads these
        # flat lists instead of touching TraceEntry objects.
        self._soa = trace.soa()
        self._n = len(trace.entries)
        self.gshare = GsharePredictor(entries=gshare_entries)
        self.indirect = IndirectPredictor()
        self._index = 0
        #: cycle before which no fetch may happen (I-cache miss or redirect).
        self._stalled_until = 0
        #: True while waiting for a mispredicted branch to resolve.
        self._blocked = False
        self._last_line: Optional[int] = None
        # Hoisted per-instruction constants (hot loop).
        self._l1i_line = hierarchy.config.l1i_line
        self._l1i_hit_latency = hierarchy.config.l1i_hit_latency
        #: optional trace bus (set by the machine when tracing is on).
        self.bus = None

    # ------------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when every trace entry has been fetched (and no rewind is
        pending)."""
        return self._index >= len(self.trace.entries) and not self._blocked

    def redirect(self, seq: int, resume_cycle: int) -> None:
        """Restart fetching at trace position ``seq`` from ``resume_cycle``.

        Used both for branch-misprediction resolution and for back-end
        squashes.  ``seq`` may be anywhere at or before the current
        position.
        """
        self._index = seq
        self._stalled_until = resume_cycle
        self._blocked = False
        self._last_line = None
        if self.bus is not None:
            self.bus.emit(resume_cycle, FETCH_REDIRECT, seq=seq)

    # ------------------------------------------------------------------

    def fetch_into(self, now: int, queue, room: int) -> int:
        """Fetch up to ``min(width, room)`` instructions for cycle ``now``,
        appending a packed ``(seq << 1) | mispredicted`` int per instruction
        to ``queue``.  ``room`` is the space left in the machine's
        fetch/dispatch queue.  Returns the number fetched (0 while blocked
        or stalled).
        """
        if self._blocked or now < self._stalled_until:
            return 0
        index = self._index
        n = self._n
        if index >= n:
            return 0
        soa = self._soa
        pc_bytes = soa.pc_bytes
        bkinds = soa.bkind
        takens = soa.taken
        push = queue.append
        l1i_line = self._l1i_line
        hit_bound = now + self._l1i_hit_latency
        budget = self.width if self.width < room else room
        last_line = self._last_line
        fetched = 0
        while budget > 0 and index < n:
            pcb = pc_bytes[index]
            # I-cache: probe when the group crosses into a new line.
            line = pcb // l1i_line
            if line != last_line:
                ready = self.hierarchy.inst_access(pcb, now)
                last_line = line
                if ready > hit_bound:
                    # Miss: this group ends; retry once the line arrives.
                    # (The group formed so far still issues this cycle.)
                    self._stalled_until = ready
                    self._index = index
                    self._last_line = last_line
                    return fetched
            bkind = bkinds[index]
            taken = takens[index]
            if bkind == 0:
                push(index << 1)
                index += 1
                fetched += 1
                budget -= 1
                continue
            if bkind == 1:  # conditional branch
                mispredicted = not self.gshare.predict_and_update(soa.pc[index], taken)
            elif bkind == 2:  # indirect jump
                mispredicted = not self.indirect.predict_and_update(
                    soa.pc[index], soa.next_pc[index]
                )
            else:  # direct J/JAL: perfect BTB, taken, never mispredicted
                mispredicted = False
            push((index << 1) | mispredicted)
            index += 1
            fetched += 1
            budget -= 1
            if mispredicted:
                # Fetch goes down the wrong path; starve until resolution.
                self._blocked = True
                break
            if taken:
                # At most one taken control transfer per cycle.
                last_line = None
                break
        self._index = index
        self._last_line = last_line
        return fetched
