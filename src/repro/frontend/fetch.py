"""Trace-driven fetch unit: the front end's state.

The fetch stage walks the dynamic trace in order, modelling:

* fetch width (at most ``width`` instructions per cycle),
* at most one taken control transfer per cycle (Table 1: "up to 1 taken
  branch"),
* I-cache hits/misses on the fetch group's line,
* the misprediction bubble: after fetching a mispredicted branch the unit
  blocks until the back end resolves the branch and calls
  :meth:`redirect` (trace-driven models cannot execute the wrong path, so
  its cost is this fetch starvation plus the configured refill penalty —
  DESIGN.md §5.1).

The stage's body lives in the machine's cycle loop
(:meth:`repro.pipeline.machine.Machine._cycles`, section ``fetch``), like
every other stage; this class holds the state it reads and writes
between cycles: the branch predictors, the trace position, the stall
and block flags and the last I-cache line probed.

The back end may also rewind the unit to an arbitrary sequence number with
:meth:`redirect` when it squashes (vector misspeculation recovery, store
coherence squash) — the entries from that point are simply re-fetched.
"""

from __future__ import annotations

from typing import Optional

from ..functional.trace import Trace
from ..observe.events import FETCH_REDIRECT
from .branch_predictor import GsharePredictor, IndirectPredictor


class FetchUnit:
    """The in-order front end's state between fetch cycles: predictors,
    trace position, stall and block flags, last I-cache line."""

    def __init__(self, trace: Trace, gshare_entries: int = 64 * 1024) -> None:
        self.trace = trace
        self.gshare = GsharePredictor(entries=gshare_entries)
        self.indirect = IndirectPredictor()
        self._index = 0
        #: cycle before which no fetch may happen (I-cache miss or redirect).
        self._stalled_until = 0
        #: True while waiting for a mispredicted branch to resolve.
        self._blocked = False
        #: I-cache line of the last fetched group (None: probe the next).
        self._last_line: Optional[int] = None
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
