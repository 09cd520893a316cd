"""Simulation statistics.

One :class:`SimStats` instance accumulates everything a run needs to
reproduce the paper's figures; the derived properties at the bottom map
directly onto the figures' metrics (see DESIGN.md §4 for the index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimStats:
    """Counters for one timing-simulation run."""

    # -- progress -----------------------------------------------------------
    cycles: int = 0
    committed: int = 0

    # -- front end ----------------------------------------------------------
    fetched: int = 0
    branch_mispredicts: int = 0

    # -- memory -------------------------------------------------------------
    #: port transactions that read data (scalar loads and vector fetches).
    read_accesses: int = 0
    #: port transactions that wrote data (committed stores).
    write_accesses: int = 0
    #: scalar loads satisfied by store-to-load forwarding (no port used).
    forwarded_loads: int = 0
    #: committed scalar loads that went to memory.
    scalar_loads_to_memory: int = 0

    # -- vectorization ------------------------------------------------------
    #: dynamic instructions that *created* a vector instance (load or ALU):
    #: the sum of the next two, stamped at the end of the run.
    vector_instances: int = 0
    vector_load_instances: int = 0
    vector_alu_instances: int = 0
    #: committed validation operations (the paper's Fig 14 metric).
    validations_committed: int = 0
    #: validations that failed -> misspeculation recovery.
    validation_failures: int = 0
    #: committed stores whose address hit a vector register range (§3.6).
    store_conflicts: int = 0
    committed_stores: int = 0
    #: decode stalls waiting for a scalar operand value (Fig 7 "real").
    scalar_operand_stall_cycles: int = 0
    #: vector ALU instances created with a nonzero start offset (Fig 9).
    offset_instances: int = 0
    #: vector register allocation failures (pool empty -> stayed scalar).
    vreg_alloc_failures: int = 0

    # -- vector element accounting (Fig 15) -----------------------------------
    #: summed over every vector register's lifetime:
    elements_computed_used: int = 0
    elements_computed_unused: int = 0
    elements_not_computed: int = 0
    #: one per vector instance (stamped at the end of the run).
    registers_allocated: int = 0
    registers_freed: int = 0

    # -- control-flow independence (Fig 10) -----------------------------------
    #: committed instructions inside the 100-instruction windows that follow
    #: mispredicted branches.
    cfi_window_instructions: int = 0
    #: of those, validations — instructions that "do not need to be
    #: executed since they were executed in vector mode" (the paper's
    #: Fig 10 metric; the vector state they consume survived the flush).
    cfi_reused: int = 0
    #: stricter subset: window validations whose element had already been
    #: computed when the misprediction resolved (pre-flush work directly
    #: reused).
    cfi_precomputed: int = 0

    # -- wide-bus usefulness (Fig 13), filled at the end of a run ---------------
    usefulness: Dict[str, float] = field(default_factory=dict)
    port_occupancy: float = 0.0

    # -- derived metrics -------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle (Fig 11's metric)."""
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def memory_accesses(self) -> int:
        """Total L1 data-port transactions (the §1 'memory requests')."""
        return self.read_accesses + self.write_accesses

    @property
    def validation_fraction(self) -> float:
        """Share of committed instructions that were validations (Fig 14)."""
        return self.validations_committed / self.committed if self.committed else 0.0

    @property
    def cfi_reuse_fraction(self) -> float:
        """Share of post-mispredict window instructions reused (Fig 10)."""
        if not self.cfi_window_instructions:
            return 0.0
        return self.cfi_reused / self.cfi_window_instructions

    @property
    def avg_elements(self) -> Dict[str, float]:
        """Per-register average element fates (Fig 15's three stacks)."""
        n = self.registers_allocated
        if not n:
            return {"computed_used": 0.0, "computed_unused": 0.0, "not_computed": 0.0}
        return {
            "computed_used": self.elements_computed_used / n,
            "computed_unused": self.elements_computed_unused / n,
            "not_computed": self.elements_not_computed / n,
        }

    def summary(self) -> str:
        """A compact human-readable multi-line report."""
        lines = [
            f"cycles={self.cycles}  committed={self.committed}  IPC={self.ipc:.3f}",
            f"memory: reads={self.read_accesses} writes={self.write_accesses} "
            f"forwards={self.forwarded_loads} occupancy={self.port_occupancy:.1%}",
            f"branches: mispredicts={self.branch_mispredicts}",
        ]
        if self.vector_instances or self.validations_committed:
            lines.append(
                f"vector: instances={self.vector_instances} "
                f"(loads={self.vector_load_instances} alu={self.vector_alu_instances}) "
                f"validations={self.validations_committed} "
                f"({self.validation_fraction:.1%} of commits) "
                f"failures={self.validation_failures} "
                f"store_conflicts={self.store_conflicts}"
            )
            avg = self.avg_elements
            lines.append(
                f"elements/reg: used={avg['computed_used']:.2f} "
                f"unused={avg['computed_unused']:.2f} "
                f"not_computed={avg['not_computed']:.2f} "
                f"(regs={self.registers_allocated})"
            )
        return "\n".join(lines)
