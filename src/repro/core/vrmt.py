"""Vector Register Map Table (VRMT): PC -> vector register (paper §3.2, Fig 5).

Each row remembers, for a vectorized static instruction:

* the vector register currently holding its precomputed results,
* the *offset* — the element the next dynamic instance will validate,
* the renamed sources the instance was vectorized with (so a later
  instance whose renamed sources differ forces re-vectorization),
* for mixed vector/scalar instructions, the scalar register *value* that
  was captured when the instance was created.

A row belongs to exactly one register and a register to at most one
row, so the row's fields are the register's own (``offset``, ``src1``,
``src2``, ``scalar_value`` on
:class:`~repro.core.vector_regfile.VectorRegister`) and the table maps a
PC straight to the register.

The table is 4-way set-associative with 64 sets (Table 1); evicting a
mapping orphans its register, which then drains through the normal
freeing rules.

The renamed sources are the creation-time rename tokens of ``rs1`` and
``rs2``: the ``(reg, elem)`` tuple of a vector-mapped source, None for a
scalar-mapped, immediate or absent one (an instruction's operand layout
is static per PC, so those positions need no record).  Loads record no
sources — their validation compares predicted vs. actual *addresses*
instead.
"""

from __future__ import annotations

from typing import Optional

from .tables import SetAssocTable
from .vector_regfile import VectorRegister


class VRMT:
    """The map table plus rollback support for squashes."""

    def __init__(self, ways: int = 4, sets: int = 64) -> None:
        self.table: SetAssocTable[VectorRegister] = SetAssocTable(ways, sets)
        self.orphaned_registers = 0
        #: every PC that ever had a mapping — a conservative superset of
        #: the live keys (never pruned; programs have few static PCs).
        #: The dispatch hot path probes it to skip the decode call for
        #: instructions that were never vectorized.
        self.pcs = set()

    def lookup(self, pc: int) -> Optional[VectorRegister]:
        """The register live-mapped at ``pc``, or None."""
        reg = self.table.lookup(pc)
        if reg is not None and (reg.freed or reg.defunct):
            # The register died underneath the mapping; drop the stale row.
            self.table.invalidate(pc)
            return None
        return reg

    def insert(self, pc: int, reg: VectorRegister) -> None:
        """Map ``pc`` to ``reg``; an evicted mapping orphans its register."""
        self.pcs.add(pc)
        evicted = self.table.insert(pc, reg)
        if evicted is not None and not evicted.freed:
            self.orphaned_registers += 1

    def reinstall(self, pc: int, reg: VectorRegister) -> None:
        """Squash rollback: map ``pc`` back to a previously mapped register
        without orphan accounting (it was never evicted-and-lost)."""
        self.pcs.add(pc)
        self.table.insert(pc, reg)

    def invalidate(self, pc: int) -> Optional[VectorRegister]:
        """Remove the mapping for ``pc`` (store conflict / misspeculation)."""
        return self.table.invalidate(pc)

    def __len__(self) -> int:
        """Live mappings currently installed (observability gauges)."""
        return len(self.table)

    @property
    def storage_bytes(self) -> int:
        """Hardware cost per §4.1: ways * sets * 18 bytes per entry."""
        return self.table.ways * self.table.sets * 18
