"""Vector Register Map Table (VRMT): PC -> vector register (paper §3.2, Fig 5).

Each entry remembers, for a vectorized static instruction:

* the vector register currently holding its precomputed results,
* the *offset* — the element the next dynamic instance will validate,
* the renamed sources the instance was vectorized with (so a later
  instance whose renamed sources differ forces re-vectorization),
* for mixed vector/scalar instructions, the scalar register *value* that
  was captured when the instance was created.

The table is 4-way set-associative with 64 sets (Table 1); evicting an
entry orphans its register, which then drains through the normal freeing
rules.

The renamed sources are the creation-time rename tokens of ``rs1`` and
``rs2``: the ``(reg, elem)`` tuple of a vector-mapped source, None for a
scalar-mapped, immediate or absent one (an instruction's operand layout
is static per PC, so those positions need no record).  Loads record no
sources — their validation compares predicted vs. actual *addresses*
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .tables import SetAssocTable
from .vector_regfile import VectorRegister

Number = Union[int, float]


@dataclass(slots=True)
class VRMTEntry:
    """One VRMT row (Fig 5: PC, offset, source operands, scalar value)."""

    reg: VectorRegister
    offset: int
    #: creation-time ``(reg, elem)`` tokens of vector-mapped rs1 / rs2.
    src1: Optional[Tuple[VectorRegister, int]] = None
    src2: Optional[Tuple[VectorRegister, int]] = None
    scalar_value: Optional[Number] = None


class VRMT:
    """The map table plus rollback support for squashes."""

    def __init__(self, ways: int = 4, sets: int = 64) -> None:
        self.table: SetAssocTable[VRMTEntry] = SetAssocTable(ways, sets)
        self.orphaned_registers = 0
        #: every PC that ever had a mapping — a conservative superset of
        #: the live keys (never pruned; programs have few static PCs).
        #: The dispatch hot path probes it to skip the decode call for
        #: instructions that were never vectorized.
        self.pcs = set()

    def lookup(self, pc: int) -> Optional[VRMTEntry]:
        """The live entry for ``pc``, or None."""
        entry = self.table.lookup(pc)
        if entry is not None and (entry.reg.freed or entry.reg.defunct):
            # The register died underneath the mapping; drop the stale entry.
            self.table.invalidate(pc)
            return None
        return entry

    def insert(self, pc: int, entry: VRMTEntry) -> None:
        """Install/replace the mapping for ``pc``; evictions orphan registers."""
        self.pcs.add(pc)
        evicted = self.table.insert(pc, entry)
        if evicted is not None and not evicted.reg.freed:
            self.orphaned_registers += 1

    def reinstall(self, pc: int, entry: VRMTEntry) -> None:
        """Squash rollback: put a previously live entry object back without
        orphan accounting (its register was never evicted-and-lost)."""
        self.pcs.add(pc)
        self.table.insert(pc, entry)

    def invalidate(self, pc: int) -> Optional[VRMTEntry]:
        """Remove the mapping for ``pc`` (store conflict / misspeculation)."""
        return self.table.invalidate(pc)

    def __len__(self) -> int:
        """Live mappings currently installed (observability gauges)."""
        return len(self.table)

    @property
    def storage_bytes(self) -> int:
        """Hardware cost per §4.1: ways * sets * 18 bytes per entry."""
        return self.table.ways * self.table.sets * 18
