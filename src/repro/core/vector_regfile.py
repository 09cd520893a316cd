"""Vector register file with the paper's per-element state machine (§3.3).

Each of the 128 vector registers holds 4 elements (64-bit words).  Every
element carries four flags (Fig 8):

* **R** (Ready)  — the element has been computed (loaded / produced by a
  vector FU).  In the timing model this is a cycle number: the element is
  R at cycle ``t`` once ``r_time is not None and r_time <= t``.
* **V** (Valid)  — the validation for this element has *committed*.
* **U** (Used)   — a validation for this element is in flight (dispatched,
  not yet committed); blocks freeing.
* **F** (Free)   — the element's value is architecturally dead: the next
  write to the same logical register has committed.

Each register also records the **MRBB** tag — the PC of the most recently
committed backward branch when the register was allocated — and, for
loads, the first/last predicted addresses used by the §3.6 store
coherence check.

Freeing (verbatim from §3.3): a register is released when

1. every element has R and F set; or
2. every V element has F set, all elements are R, no element has U set,
   and the register's MRBB differs from the global GMRBB (the loop that
   allocated it has terminated).

The engine evaluates these rules in one place,
:meth:`~repro.core.engine.VectorizationEngine._maybe_free`.

Registers are Python objects handed out by slot; freeing bumps the slot
generation so stale references (squashed consumers) can never alias a
newly allocated register.

A register is also its own VRMT row (Fig 5): each mapping names exactly
one register and each register is mapped at most once, so the row's
fields — the next element ``offset`` to validate, the creation-time
source tokens and the captured scalar value — live here, and the VRMT
(:mod:`repro.core.vrmt`) maps a PC straight to the register.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Optional, Tuple, Union

from .kernel import pred_addrs, range_hits

Number = Union[int, float]


class VectorRegister:
    """One allocated vector register and its element state."""

    __slots__ = (
        "slot",
        "gen",
        "pc",
        "is_load",
        "fp_load",
        "length",
        "start_offset",
        "full_mask",
        "values",
        "r_time",
        "v_bits",
        "u_bits",
        "f_bits",
        "pred_addrs",
        "first_addr",
        "last_addr",
        "mrbb",
        "defunct",
        "txn_ids",
        "freed",
        "sleepers",
        "alu_sleepers",
        "offset",
        "src1",
        "src2",
        "scalar_value",
    )

    def __init__(
        self,
        slot: int,
        gen: int,
        pc: int,
        is_load: bool,
        length: int,
        start_offset: int,
        mrbb: int,
    ) -> None:
        self.slot = slot
        self.gen = gen
        self.pc = pc
        self.is_load = is_load
        self.length = length
        self.start_offset = start_offset
        #: all-elements bitmask; the V/U/F flag vectors below are packed
        #: ints indexed by element (bit ``k`` = element ``k``), so the
        #: whole-register predicates the freeing rules need (any U? every
        #: element F?) are single int compares instead of list scans.
        self.full_mask = (1 << length) - 1
        self.values: List[Number] = [0] * length
        #: cycle each element's computation completes; None = not scheduled.
        #: Elements below start_offset count as computed at cycle 0.
        self.r_time: List[Optional[int]] = [None] * length
        if start_offset:
            self.r_time[:start_offset] = [0] * start_offset
        self.v_bits = 0
        self.u_bits = 0
        # Elements below start_offset do not exist for this instance; mark
        # them vacuously complete so the freeing rules read naturally.
        self.f_bits = (1 << start_offset) - 1
        self.mrbb = mrbb
        #: True once invalidated by a store conflict / misspeculation: no
        #: further validations may attach.
        self.defunct = False
        self.freed = False
        #: per-element lists of window instructions blocked until the
        #: element is scheduled (None until the first one sleeps; see
        #: :func:`sleep_on_element`).
        self.sleepers: Optional[List[Optional[list]]] = None
        #: vector ALU instances asleep until this register changes (None
        #: until the first one sleeps; see :func:`sleep_on_register`).
        self.alu_sleepers: Optional[list] = None
        # The VRMT row.  The creating decode validates ``start_offset``
        # itself, so the next dynamic instance validates the element after.
        self.offset = start_offset + 1
        #: creation-time ``(reg, elem)`` rename tokens of vector-mapped
        #: rs1 / rs2 (None: scalar, immediate or absent; loads record none).
        self.src1: Optional[Tuple["VectorRegister", int]] = None
        self.src2: Optional[Tuple["VectorRegister", int]] = None
        #: §3.2's captured scalar operand of a mixed ALU instance.
        self.scalar_value: Optional[Number] = None

    # ------------------------------------------------------------------

    def make_load(self, base_addr: int, stride: int, fp_load: bool = False) -> None:
        """Set up a load register's own fields (an ALU register has none
        of them): the predicted element addresses, the §3.6 range, the
        element write-back domain and the per-element read transactions.
        """
        #: FLD (vs LD) register: element fetches coerce to float the way
        #: the architectural write-back does (LD elements wrap to int64).
        self.fp_load = fp_load
        #: read-transaction ids that fetched each element (Fig 13).
        self.txn_ids: List[Optional[int]] = [None] * self.length
        pa = pred_addrs(base_addr, stride, self.length)
        #: predicted element addresses.
        self.pred_addrs = pa
        # Strided addresses are monotone, so the range is the two ends.
        if stride >= 0:
            self.first_addr = pa[0]
            self.last_addr = pa[-1]
        else:
            self.first_addr = pa[-1]
            self.last_addr = pa[0]

    def element_fates(self, now: int) -> Tuple[int, int, int]:
        """(computed&validated, computed&unvalidated, not computed) counts.

        Fig 15's three stacks, evaluated over the full architectural
        vector length (pre-start elements count as not computed, matching
        the paper's 'not comp.' population).
        """
        used = 0
        unused = 0
        not_computed = self.start_offset
        v_bits = self.v_bits
        for k in range(self.start_offset, self.length):
            if self.r_time[k] is not None and self.r_time[k] <= now:
                if (v_bits >> k) & 1:
                    used += 1
                else:
                    unused += 1
            else:
                not_computed += 1
        return used, unused, not_computed


def sleep_on_element(reg: VectorRegister, k: int, fl) -> None:
    """Block window instruction ``fl`` until element ``k`` of ``reg`` is
    scheduled (its ``r_time`` is still None)."""
    sleepers = reg.sleepers
    if sleepers is None:
        sleepers = reg.sleepers = [None] * reg.length
    waiting = sleepers[k]
    if waiting is None:
        sleepers[k] = [fl]
    else:
        waiting.append(fl)


def wake_element(reg: VectorRegister, k: int, t: int, parked: list) -> None:
    """Element ``k`` of ``reg`` was just scheduled ready at cycle ``t``:
    move its sleepers onto the machine's park heap (``(cycle, seq, fl)``
    entries), where they rejoin the execute scan at cycle ``t`` — the
    cycle a per-cycle rescan would first have got past the element.
    Callers check ``reg.sleepers is not None``.  Sleepers squashed while
    asleep are dropped (their re-fetched incarnations block anew)."""
    sleepers = reg.sleepers
    waiting = sleepers[k]
    if waiting is not None:
        sleepers[k] = None
        for fl in waiting:
            if not fl.squashed:
                heappush(parked, (t, fl.seq, fl))


def sleep_on_register(reg: VectorRegister, inst) -> None:
    """Put vector ALU instance ``inst`` to sleep until ``reg`` changes:
    its scan stopped on an element of ``reg`` that is live and not yet
    scheduled, and no pass can get further before one of ``reg``'s
    elements is scheduled or ``reg`` turns defunct or freed."""
    waiting = reg.alu_sleepers
    if waiting is None:
        reg.alu_sleepers = [inst]
    else:
        waiting.append(inst)


def wake_instances(reg: VectorRegister, woken: list) -> None:
    """``reg`` changed: move every instance asleep on it onto ``woken``,
    the engine's heap of ``(order, instance)`` due a datapath visit.  The
    heap is visited in creation order, so the visit order (which decides
    the vector FU claim) is unchanged; an instance woken by another
    element than the one it waits for costs one visit that makes no
    progress and sleeps again.  Callers check ``reg.alu_sleepers is not
    None``."""
    for inst in reg.alu_sleepers:
        heappush(woken, (inst.order, inst))
    reg.alu_sleepers = None


class VectorRegisterFile:
    """Allocation pool over ``num_registers`` slots with generations."""

    def __init__(self, num_registers: int = 128, vector_length: int = 4) -> None:
        self.num_registers = num_registers
        self.vector_length = vector_length
        self._free_slots = list(range(num_registers - 1, -1, -1))
        self._gens = [0] * num_registers
        self._live: List[Optional[VectorRegister]] = [None] * num_registers
        # Coherence index for the §3.6 store check: parallel arrays of the
        # [first, last] address range of every indexed load register, so a
        # committing store tests all ranges in one batched kernel call
        # instead of walking the live set.  Freed registers leave a dead
        # row (filtered on lookup) until the lazy compaction runs.
        self._load_regs: List[VectorRegister] = []
        self._load_firsts: List[int] = []
        self._load_lasts: List[int] = []
        self._load_dead = 0
        #: vector ALU instances due a datapath visit: the engine's heap of
        #: ``(order, instance)`` (see :func:`wake_instances`).
        self.woken_alu: list = []

    # ------------------------------------------------------------------

    def allocate(
        self, pc: int, is_load: bool, start_offset: int, mrbb: int
    ) -> Optional[VectorRegister]:
        """Allocate a register, or None when the pool is empty (§3.3: the
        instruction then simply stays scalar)."""
        if not self._free_slots:
            return None
        slot = self._free_slots.pop()
        self._gens[slot] += 1
        reg = VectorRegister(
            slot,
            self._gens[slot],
            pc,
            is_load,
            self.vector_length,
            start_offset,
            mrbb,
        )
        self._live[slot] = reg
        return reg

    def free(self, reg: VectorRegister) -> None:
        """Release ``reg``'s slot (idempotence guarded by ``freed``)."""
        if reg.freed:
            return
        reg.freed = True
        # A freed register's VRMT row is never read again (every probe
        # drops it), and its source tokens would keep the registers it
        # was computed from alive, and theirs in turn.
        reg.src1 = reg.src2 = None
        if reg.alu_sleepers is not None:
            wake_instances(reg, self.woken_alu)
        self._live[reg.slot] = None
        self._free_slots.append(reg.slot)
        if reg.is_load:
            self._load_dead += 1
            dead = self._load_dead
            if dead > 32 and dead * 2 > len(self._load_regs):
                self._compact_load_index()

    # -- §3.6 coherence index ------------------------------------------

    def index_load(self, reg: VectorRegister) -> None:
        """Register a load's predicted address range for the store check
        (called by the engine after ``make_load``)."""
        self._load_regs.append(reg)
        self._load_firsts.append(reg.first_addr)
        self._load_lasts.append(reg.last_addr)

    def coherence_candidates(self, addr: int) -> List[VectorRegister]:
        """Live load registers whose predicted range covers ``addr``
        (one batched range compare, :func:`repro.core.kernel.range_hits`)."""
        firsts = self._load_firsts
        if not firsts:
            return []
        regs = self._load_regs
        return [
            regs[i]
            for i in range_hits(addr, firsts, self._load_lasts)
            if not regs[i].freed
        ]

    def _compact_load_index(self) -> None:
        regs = self._load_regs
        keep = [i for i, reg in enumerate(regs) if not reg.freed]
        firsts = self._load_firsts
        lasts = self._load_lasts
        self._load_regs = [regs[i] for i in keep]
        self._load_firsts = [firsts[i] for i in keep]
        self._load_lasts = [lasts[i] for i in keep]
        self._load_dead = 0

    def live_registers(self) -> List[VectorRegister]:
        """Currently allocated registers (for sweeps and the store check)."""
        return [reg for reg in self._live if reg is not None]

    @property
    def storage_bytes(self) -> int:
        """Hardware cost per §4.1: elements * 8 bytes * registers."""
        return self.vector_length * 8 * self.num_registers
