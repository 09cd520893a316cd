"""Table of Loads (TL): per-static-load stride detection (paper §3.2, Fig 4).

Every load, on decode, reports its effective address here.  The entry
tracks (last address, stride, confidence):

* first sighting initialises the address and zeroes stride/confidence;
* each later sighting computes ``new_stride = addr - last``; a repeat of
  the recorded stride bumps the confidence counter, a change resets it to
  zero and records the new stride;
* once confidence reaches the threshold (paper: 2, i.e. the third
  consistent instance) the load is declared strided and the engine may
  create a vector instance.

Beyond the paper's text, the entry carries a small *failure damping*
counter: every misspeculation (failed validation or store-coherence
invalidation) doubles the confidence the load must re-earn before it may
vectorize again, and a full successfully-validated vector register halves
it.  Without this, pathological patterns — a spill slot stored and
reloaded every iteration — re-vectorize on the minimum three instances,
conflict with the next store, squash the pipeline, and repeat; the paper's
4.5%/2.5% store-conflict rates imply its workloads did not sit in that
loop, and the damping keeps ours out of it too (documented in DESIGN.md
§5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .tables import SetAssocTable


@dataclass(slots=True)
class TLEntry:
    """One Table-of-Loads row (Fig 4: PC, last address, stride, confidence)."""

    last_address: int
    stride: int = 0
    confidence: int = 0
    #: misspeculation damping exponent (not in the paper's figure; see
    #: module docstring).
    failures: int = 0
    #: the confidence the entry must reach to vectorize: the table's
    #: threshold, damped by ``failures``.  Kept current by the table.
    required: int = 0


class TableOfLoads:
    """The TL: 4-way set-associative, 512 sets by default (Table 1).

    ``damping=False`` disables the failure-damping ladder (the entry then
    always re-qualifies at the base confidence threshold, exactly the
    paper's text); the damping ablation measures what that costs on
    spill-heavy codes.
    """

    def __init__(
        self,
        ways: int = 4,
        sets: int = 512,
        confidence_threshold: int = 2,
        damping: bool = True,
    ) -> None:
        self.table: SetAssocTable[TLEntry] = SetAssocTable(ways, sets)
        self.confidence_threshold = confidence_threshold
        self.damping = damping

    def observe(self, pc: int, addr: int) -> Tuple[Optional[int], bool]:
        """Record a dynamic load instance; returns ``(stride, vectorizable)``.

        ``stride`` is the byte stride the entry currently believes (None on
        first sighting); ``vectorizable`` is True when confidence has
        reached the (damped) threshold, i.e. the engine may create a vector
        instance whose elements continue at ``addr + k*stride``.
        """
        entry = self.table.lookup(pc)
        if entry is None:
            self.table.insert(
                pc, TLEntry(last_address=addr, required=self.confidence_threshold)
            )
            return None, False
        new_stride = addr - entry.last_address
        if new_stride == entry.stride:
            entry.confidence += 1
        else:
            entry.stride = new_stride
            entry.confidence = 0
        entry.last_address = addr
        return entry.stride, entry.confidence >= entry.required

    def punish(self, pc: int) -> bool:
        """A misspeculation for this load: reset confidence, raise the bar.

        Returns True when a tracked entry was actually demoted (the
        tracing bus uses this to emit ``tl.demote`` only for real state
        changes)."""
        entry = self.table.peek(pc)
        if entry is None:
            return False
        entry.confidence = 0
        if self.damping:
            entry.failures = min(entry.failures + 1, 4)
            entry.required = self.confidence_threshold << entry.failures
        return True

    def reward(self, pc: int) -> None:
        """A fully-validated vector register for this load: relax damping."""
        entry = self.table.peek(pc)
        if entry is not None and entry.failures:
            entry.failures -= 1
            entry.required = self.confidence_threshold << entry.failures

    def is_vectorizable(self, pc: int) -> Tuple[Optional[int], bool]:
        """Non-training probe: current ``(stride, qualifies)`` for ``pc``.

        Used when an instruction is re-decoded after a squash — the
        original decode already trained the entry for this instance.
        """
        entry = self.table.peek(pc)
        if entry is None:
            return None, False
        return entry.stride, entry.confidence >= entry.required

    def stride_of(self, pc: int) -> Optional[int]:
        """Current believed stride for the load at ``pc`` (None if untracked)."""
        entry = self.table.peek(pc)
        return entry.stride if entry is not None else None

    @property
    def storage_bytes(self) -> int:
        """Hardware cost per §4.1: ways * sets * 24 bytes per entry."""
        return self.table.ways * self.table.sets * 24
