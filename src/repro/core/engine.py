"""The speculative dynamic vectorization engine (paper §3).

This module is the paper's contribution.  It plugs into the decode stage
of the out-of-order machine (:mod:`repro.pipeline.machine`) and owns:

* the **Table of Loads** — stride detection that fires vectorization;
* the **VRMT** — maps static PCs to the vector registers holding their
  precomputed results, plus the next element offset to validate;
* the **vector register file** — 128 x 4-element registers with the
  V/R/U/F element flags, MRBB tags and the two freeing rules;
* the **vector datapath** — element fetches for vector loads (scheduled
  over the machine's L1 ports) and pipelined vector ALU instances whose
  element values are *really computed* with the shared ISA semantics;
* **validation** — every later dynamic instance of a vectorized
  instruction is turned into a validation op checking one element
  (address equality for loads, operand identity for arithmetic);
* **misspeculation recovery** — a failed validation squashes from the
  failing instruction and drops it back to scalar mode;
* **store coherence** (§3.6) — committed stores are checked against the
  address range of every live vector-load register; a hit invalidates the
  VRMT entry, marks the register defunct and squashes younger
  instructions;
* **control-flow independence** (§3.5) — none of the vector state above
  is rolled back on branch mispredictions, so post-misprediction
  validations can reuse pre-flush work.

Soundness is enforced, not assumed: when ``config.check_invariants`` is
on, every committing validation asserts that its element value equals the
architectural result from the functional trace.  Any bug in stride
prediction, coherence or operand matching trips the assertion instead of
silently inflating the speedup.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from ..functional.semantics import alu_function
from ..isa.opcodes import FU_LATENCY, Opcode, fu_class_of
from ..isa.registers import NO_REG
from ..observe.events import (
    SQUASH_COHERENCE,
    TL_DEMOTE,
    TL_PROMOTE,
    VALIDATE_FAIL,
    VALIDATE_PASS,
    VRMT_INVALIDATE,
    VRMT_MAP,
)

if TYPE_CHECKING:  # avoid a package-level import cycle with the pipeline
    from ..observe import Observer
    from ..pipeline.config import MachineConfig
    from ..pipeline.stats import SimStats
from .table_of_loads import TableOfLoads
from .vector_regfile import (
    VectorRegister,
    VectorRegisterFile,
    sleep_on_register,
    wake_element,
    wake_instances,
)
from .vrmt import VRMT

Number = Union[int, float]

#: Decode outcomes.  ``decode_load`` / ``decode_alu`` return None for a
#: plain scalar that touched no engine state; otherwise they write the
#: outcome into the caller's window record ``fl`` and return its kind.
#: The two vector outcomes carry the machine's window-kind numbers.
#:
#: * ``SCALAR``: execute normally; the decode touched the VRMT and wrote
#:   only ``fl.vrmt_rollback``.
#: * ``VALIDATION`` / ``TRIGGER``: check one vector element, no execution
#:   (a trigger created a vector instance and commits its start element).
#:   The decode wrote ``fl.vreg`` and ``fl.velem`` (the element),
#:   ``fl.mismatch`` (a load's predicted address differs from the actual
#:   one: both are known at decode), ``fl.counts_as_validation`` (Fig 14's
#:   validation ops: a chained creation validates element 0 of its new
#:   register, so it is both a trigger and a validation) and
#:   ``fl.vrmt_rollback``.
#: * ``STALL`` (``decode_alu`` only): §3.2's scalar-operand stall; the
#:   instruction stays in the fetch queue and nothing was touched.
#:
#: ``vrmt_rollback`` is the squash rollback ``(pc, reg-or-None, offset)``:
#: ``reg`` is the register mapped at ``pc`` before the decode (only its
#: ``offset`` ever changes while it is mapped, so remapping it with the
#: saved offset restores the exact pre-decode state); None means there
#: was no mapping to restore.
SCALAR = 0
VALIDATION = 3
TRIGGER = 4
STALL = -1

#: sweep order: the register file's slot order.
_SLOT = attrgetter("slot")

#: single-source fp/convert forms whose missing rs2 is NOT an immediate.
_NO_IMM_OPS = frozenset(
    (Opcode.FNEG, Opcode.FABS, Opcode.FMOV, Opcode.FSQRT, Opcode.ITOF, Opcode.FTOI)
)

#: where an ALU opcode's second ISA operand comes from.
_SRC2_NONE = 0
_SRC2_REG = 1
_SRC2_IMM = 2

#: per-PC static ALU decode: (callable, FU class, latency, has rs1, rs2 form).
AluLayout = Tuple[Callable, int, int, bool, int]


def _alu_layout(entry) -> AluLayout:
    """The static part of an arithmetic instruction's decode."""
    op = entry.op
    cls = fu_class_of(op)
    if entry.rs2 != NO_REG:
        form2 = _SRC2_REG
    elif op in _NO_IMM_OPS:
        form2 = _SRC2_NONE
    else:  # immediate-operand forms carry the immediate as rs2
        form2 = _SRC2_IMM
    return alu_function(op), cls, FU_LATENCY[cls], entry.rs1 != NO_REG, form2


#: FAULT-INJECTION HOOK — test use only.  True disables the §3.6 store
#: range coherence check entirely, re-creating the classic silent-
#: corruption bug the differential oracle exists to catch.  The
#: tests/verify suite flips it (via monkeypatch) to prove the oracle
#: detects the resulting divergence and that the minimizer shrinks the
#: offending program to a tiny reproducer.  Production code must never
#: set it.
_DEBUG_SKIP_STORE_RANGE_CHECK = False


class MisspeculationError(AssertionError):
    """A committed validation disagreed with the architectural value —
    the mechanism would have corrupted architectural state."""


class VectorAluInstance:
    """A pending vector arithmetic operation (element-wise, pipelined).

    Operands arrive split once, at creation, as ``(reg, offset, value)``
    triples in ISA source order: destination element ``k`` reads element
    ``k + offset`` of vector source ``reg``, or, when ``reg`` is None, the
    broadcast scalar/immediate ``value`` (§3.4).  They are the two ALU
    operand fields the datapath reads per element (``a_*`` and ``b_*``);
    a single-source opcode gets a constant 0 second operand.
    ``fn`` is the opcode's callable from the dispatch table
    :func:`~repro.functional.semantics.apply_alu` uses; it and the FU
    class and latency come from the instruction's per-PC decode.

    Elements are scheduled individually as their source elements become
    available (a load source's elements arrive one fetch at a time),
    flowing through one pipelined vector FU at one element per cycle.
    ``order`` is the instance's creation rank, the order in which the
    datapath visits instances.

    Instances are recycled through the engine's free pool (``reset`` is
    the whole constructor), so steady-state V-mode runs allocate no new
    records on this path.
    """

    __slots__ = (
        "dest",
        "fn",
        "a_reg",
        "a_off",
        "a_val",
        "b_reg",
        "b_off",
        "b_val",
        "alloc_cycle",
        "next_elem",
        "last_issue",
        "fu_unit",
        "fu_class",
        "latency",
        "order",
    )

    def __init__(
        self,
        dest: VectorRegister,
        layout: AluLayout,
        a_reg: Optional[VectorRegister],
        a_off: int,
        a_val: Number,
        b_reg: Optional[VectorRegister],
        b_off: int,
        b_val: Number,
        start: int,
        alloc_cycle: int,
        order: int,
    ) -> None:
        self.dest = dest
        self.fn, self.fu_class, self.latency = layout[0], layout[1], layout[2]
        self.a_reg = a_reg
        self.a_off = a_off
        self.a_val = a_val
        self.b_reg = b_reg
        self.b_off = b_off
        self.b_val = b_val
        self.alloc_cycle = alloc_cycle
        #: next destination element awaiting scheduling.
        self.next_elem = start
        #: issue slot of the previously scheduled element (pipelining;
        #: read only once the instance holds its FU).
        self.last_issue = -1
        #: index of the vector FU this instance occupies (set lazily, when
        #: its first element is ready).
        self.fu_unit: Optional[int] = None
        self.order = order

    #: re-initialize a pooled record in place (same signature as __init__).
    reset = __init__


class VectorizationEngine:
    """Decode-side vectorizer + vector datapath + coherence for one run."""

    def __init__(
        self,
        config: "MachineConfig",
        stats: "SimStats",
        observer: Optional["Observer"] = None,
    ) -> None:
        self.config = config
        vc = config.vector
        self.vl = vc.vector_length
        self.stats = stats
        # Observability: both stay None on unobserved runs, so every
        # emission site below costs a single `is not None` test.
        self._bus = observer.bus if observer is not None else None
        self._metrics = observer.metrics if observer is not None else None
        self.tl = TableOfLoads(
            vc.tl_ways, vc.tl_sets, vc.confidence_threshold, damping=vc.tl_damping
        )
        self.vrmt = VRMT(vc.vrmt_ways, vc.vrmt_sets)
        self.vrf = VectorRegisterFile(vc.num_registers, vc.vector_length)
        #: Global Most Recent Backward Branch (§3.3).
        self.gmrbb = -1
        #: element fetches awaiting an L1 port, oldest first: (reg, elem,
        #: addr).  The machine's memory stage serves and removes them.
        self.pending_fetches: List[Tuple[VectorRegister, int, int]] = []
        #: vector ALU instances due a datapath visit (new, or woken since
        #: their last one), a heap of ``(order, instance)``; the others
        #: sleep on a source register (``VectorRegister.alu_sleepers``).
        #: The register file owns it: freeing a register wakes its sleepers.
        self.woken_alu = self.vrf.woken_alu
        #: creation rank of the next vector ALU instance.
        self._alu_order = 0
        #: the machine's park heap of ``(cycle, seq, instruction)``: every
        #: element-time write here wakes the element's sleepers onto it
        #: (the machine installs its own heap; see ``wake_element``).
        self.parked: list = []
        #: vector FU pools (mirrors the scalar pool sizes, Table 1).
        self.vec_fu_free = {
            cls: [0] * count for cls, count in config.fu_pool_sizes().items()
        }
        # Hoisted configuration scalars (read in per-cycle/per-commit paths).
        self._check_invariants = config.check_invariants
        self._block_scalar = vc.block_on_scalar_operand
        #: registers that passed every flag test of §3.3's release rules at
        #: their last check and failed only on time (an element not yet
        #: computed): between GMRBB changes, the only registers a sweep can
        #: free (see :meth:`_sweep_frees`).
        self._free_candidates = set()
        #: recycled VectorAluInstance records (see tick()).
        self._alu_pool: List[VectorAluInstance] = []
        #: static ALU decode per PC, built at the PC's first ALU decode.
        self._alu_layouts: Dict[int, AluLayout] = {}

    # ------------------------------------------------------------------
    # Decode-time decisions
    # ------------------------------------------------------------------

    def decode_load(self, entry, now: int, first_time: bool, fl) -> Optional[int]:
        """Classify a dynamic load: scalar, validation, or vector trigger
        (the outcome protocol is described at :data:`SCALAR`).

        ``first_time`` is False when the instance is being re-decoded after
        a squash; the TL is then consulted without re-training (the
        original decode already observed this instance's address).
        """
        pc = entry.pc
        addr = entry.addr
        if first_time:
            stride, vectorizable = self.tl.observe(pc, addr)
        else:
            stride, vectorizable = self.tl.is_vectorizable(pc)

        reg = self.vrmt.lookup(pc)
        if reg is not None:
            # VRMT hit: validate the next element.
            elem = reg.offset
            if elem < self.vl:
                reg.offset = elem + 1
                reg.u_bits |= 1 << elem
                fl.vreg = reg
                fl.velem = elem
                fl.mismatch = reg.pred_addrs[elem] != addr
                fl.counts_as_validation = True
                fl.vrmt_rollback = (pc, reg, elem)
                return VALIDATION
            # §3.2: offset reached the register length -> spawn the next
            # vector instance; this dynamic instance validates its elem 0.
            pa = reg.pred_addrs
            stride = pa[1] - pa[0] if self.vl > 1 else (self.tl.stride_of(pc) or 0)
            return self._new_load_instance(
                pc, addr, pa[-1] + stride, stride, now, reg, reg.fp_load, fl
            )
        if vectorizable and stride is not None:
            return self._new_load_instance(
                pc, addr, addr, stride, now, None, entry.op is Opcode.FLD, fl
            )
        return None

    def _new_load_instance(
        self,
        pc: int,
        addr: int,
        base_addr: int,
        stride: int,
        now: int,
        prev: Optional[VectorRegister],
        fp: bool,
        fl,
    ) -> Optional[int]:
        """Allocate a register and launch element fetches for a load whose
        dynamic instance at ``addr`` validates the new register's element 0
        (predicted at ``base_addr``).

        ``prev`` is the live mapping a chained creation replaces (None for
        a fresh one); either way it is the pre-decode VRMT state."""
        rollback = (pc, None, 0) if prev is None else (pc, prev, prev.offset)
        reg = self.vrf.allocate(pc, True, 0, self.gmrbb)
        if reg is None:
            self.stats.vreg_alloc_failures += 1
            self._sweep_frees(now)
            # A chained creation keeps its mapping, so a later instance
            # can retry the chain; a fresh one touched nothing.
            if prev is None:
                return None
            fl.vrmt_rollback = rollback
            return SCALAR
        reg.make_load(base_addr, stride, fp)
        self.vrf.index_load(reg)
        # The paper's eager whole-register fetch (§3.2): one element fetch
        # per predicted address, queued at creation.
        self.pending_fetches.extend(zip(repeat(reg), count(), reg.pred_addrs))
        self.vrmt.insert(pc, reg)
        reg.u_bits = 1
        self.stats.vector_load_instances += 1
        chained = prev is not None
        bus = self._bus
        if bus is not None:
            bus.emit(
                now, TL_PROMOTE, pc=pc,
                stride=stride, base=base_addr, chained=chained,
            )
            bus.emit(now, VRMT_MAP, pc=pc, slot=reg.slot, gen=reg.gen, load=True)
        fl.vreg = reg
        fl.velem = 0
        fl.mismatch = base_addr != addr
        fl.counts_as_validation = chained
        fl.vrmt_rollback = rollback
        return TRIGGER

    # ------------------------------------------------------------------

    def decode_alu(self, entry, t1, t2, now: int, fl) -> Optional[int]:
        """Classify a dynamic arithmetic instruction (the outcome protocol
        is described at :data:`SCALAR`).

        ``t1`` / ``t2`` are the rename tokens of its ``rs1`` / ``rs2``
        sources (None when absent or the zero register): a ``(reg, elem)``
        tuple for a vector-mapped source — ``elem`` is the element of the
        current iteration — and otherwise the scalar producer (an
        in-flight record, or None once architectural), whose value is
        ``entry.s1`` / ``entry.s2``.
        """
        pc = entry.pc
        v1 = t1 if type(t1) is tuple else None
        v2 = t2 if type(t2) is tuple else None
        table = self.vrmt.table
        reg = table.peek(pc)
        if reg is not None:
            if reg.scalar_value is not None and self._block_scalar:
                # §3.2 / Fig 7: an instruction previously vectorized with a
                # scalar register operand compares that register's current
                # value against the captured one before it can become a
                # validation, so it waits at decode until the value is
                # available.  Fresh instances do not stall: the vector FU
                # reads the scalar register once it is ready (§3.4).  The
                # probe is a peek, so a stalled instruction refreshes no
                # LRU state and drops no stale mapping.
                if v1 is None and t1 is not None:
                    t = t1.done_at
                    if t is None or t > now:
                        return STALL
                if v2 is None and t2 is not None:
                    t = t2.done_at
                    if t is None or t > now:
                        return STALL
            if reg.freed or reg.defunct:
                # The register died underneath the mapping; drop it.
                table.invalidate(pc)
                reg = None
        if reg is None and v1 is None and v2 is None:
            return None
        layout = self._alu_layouts.get(pc)
        if layout is None:
            layout = self._alu_layouts[pc] = _alu_layout(entry)
        # §3.2's captured scalar value: the first scalar register source
        # of a mixed instance (None when not mixed).
        scalar_value = None
        if v1 is None:
            if v2 is not None and layout[3]:
                scalar_value = entry.s1
        elif v2 is None and layout[4] == _SRC2_REG:
            scalar_value = entry.s2

        if reg is None:
            return self._new_alu_instance(
                entry, layout, v1, v2, scalar_value, (pc, None, 0), now, fl
            )
        offset = reg.offset
        rollback = (pc, reg, offset)
        if offset < self.vl and (
            reg.scalar_value is None or reg.scalar_value == scalar_value
        ):
            # §3.2's operand check on the renamed sources: each must be
            # scalar again, or the same vector register the instance was
            # created from at the element this validation's dest element
            # was computed from (the rename table's offset field, Fig 6).
            # A PC's operand layout is static, so scalar and immediate
            # positions always match.
            shift = offset - reg.start_offset
            r1 = reg.src1
            r2 = reg.src2
            if (
                (r1 is None if v1 is None
                 else r1 is not None and v1[0] is r1[0] and v1[1] == r1[1] + shift)
                and (r2 is None if v2 is None
                     else r2 is not None and v2[0] is r2[0] and v2[1] == r2[1] + shift)
            ):
                table.lookup(pc)  # the VRMT hit refreshes the row's LRU
                reg.offset = offset + 1
                reg.u_bits |= 1 << offset
                fl.vreg = reg
                fl.velem = offset
                fl.mismatch = False
                fl.counts_as_validation = True
                fl.vrmt_rollback = rollback
                return VALIDATION
        # Offset exhausted or operands changed: retire this mapping and
        # (if still fed by vector operands) chain a new instance, whose
        # mapping replaces it (as the most recently used row of its set).
        if self._bus is not None:
            self._bus.emit(
                now, VRMT_INVALIDATE, pc=pc,
                reason="exhausted" if offset >= self.vl else "operands",
            )
        if v1 is None and v2 is None:
            table.invalidate(pc)
            fl.vrmt_rollback = rollback
            return SCALAR
        return self._new_alu_instance(
            entry, layout, v1, v2, scalar_value, rollback, now, fl
        )

    def _new_alu_instance(
        self,
        entry,
        layout: AluLayout,
        v1: Optional[Tuple],
        v2: Optional[Tuple],
        scalar_value: Optional[Number],
        rollback: Tuple,
        now: int,
        fl,
    ) -> int:
        """Allocate a register for a vector ALU instance (at least one of
        the vector tokens ``v1`` / ``v2`` is set; :meth:`decode_alu`
        checks).  The new mapping replaces the live one ``rollback``
        names, if any; without a register, that one is dropped."""
        pc = entry.pc
        start = 0 if v1 is None else v1[1]
        if v2 is not None and v2[1] > start:
            start = v2[1]
        reg = self.vrf.allocate(pc, False, start, self.gmrbb)
        fl.vrmt_rollback = rollback
        if reg is None:
            if rollback[1] is not None:
                self.vrmt.table.invalidate(pc)
            self.stats.vreg_alloc_failures += 1
            self._sweep_frees(now)
            return SCALAR
        # The operands in ISA source order (a vector token's element is
        # the one this instance's ``start`` element reads).
        b_reg = None
        b_off = b_val = 0
        if layout[3]:
            if v1 is None:
                a_reg = None
                a_off = 0
                a_val = entry.s1
            else:
                a_reg = v1[0]
                a_off = v1[1] - start
                a_val = 0
            form2 = layout[4]
            if form2 == _SRC2_REG:
                if v2 is None:
                    b_val = entry.s2
                else:
                    b_reg = v2[0]
                    b_off = v2[1] - start
            elif form2 == _SRC2_IMM:
                b_val = entry.imm
        else:  # no rs1: the vector source is rs2, the first ISA operand
            a_reg = v2[0]
            a_off = v2[1] - start
            a_val = 0
        order = self._alu_order
        self._alu_order = order + 1
        pool = self._alu_pool
        if pool:
            instance = pool.pop()
            instance.reset(
                reg, layout, a_reg, a_off, a_val, b_reg, b_off, b_val,
                start, now, order,
            )
        else:
            instance = VectorAluInstance(
                reg, layout, a_reg, a_off, a_val, b_reg, b_off, b_val,
                start, now, order,
            )
        # The newest instance: appending keeps the heap a heap.
        self.woken_alu.append((order, instance))
        reg.src1 = v1
        reg.src2 = v2
        reg.scalar_value = scalar_value
        self.vrmt.insert(pc, reg)
        reg.u_bits = 1 << start
        stats = self.stats
        stats.vector_alu_instances += 1
        if start:
            stats.offset_instances += 1
        if self._bus is not None:
            self._bus.emit(
                now, VRMT_MAP, pc=pc,
                slot=reg.slot, gen=reg.gen, load=False, start=start,
            )
        fl.vreg = reg
        fl.velem = start
        fl.mismatch = False
        fl.counts_as_validation = False
        return TRIGGER

    # ------------------------------------------------------------------
    # The vector datapath
    # ------------------------------------------------------------------

    def tick(self, now: int) -> None:
        """Advance the vector ALU datapath by one cycle: one pass over the
        instances due a visit, in creation order, that both times and
        computes every element whose sources now have known compute times.

        Per instance, the contiguous run of ready elements starting at
        ``next_elem`` is scheduled: a live source element with no compute
        time yet ends the run (defunct and freed sources count as ready —
        their values are garbage, but consumers of garbage are squashed
        before commit).  Each element issues at
        ``max(prev_issue + 1, pipe_start, src_ready)`` — one element per
        cycle through one pipelined FU, claimed (least-busy unit of the
        opcode's class) when the instance's first element is ready; the
        ``pipe_start`` bound is the first ``prev_issue + 1``.  Its
        ``r_time`` is the issue slot plus the FU latency, and its value is
        written to ``dest.values`` in the same step, so every scheduled
        element holds its real value.

        A run that stops on a live source element puts the instance to
        sleep on that source register, off the pass, until the register
        changes.  A pass visits the due instances in creation order — the
        order of a scan over every pending instance, which decides the FU
        claims — and an instance woken during the pass is visited in it
        when it comes after the waking one, as a scan would reach it, or
        in the next pass otherwise.  An instance that makes no progress
        sleeps again, so the visits that can make progress are exactly a
        full scan's.
        """
        due = self.woken_alu
        if not due:
            return
        pool = self._alu_pool
        fu_free = self.vec_fu_free
        #: instances woken during the pass behind its position.
        later = []
        while due:
            order, inst = heappop(due)
            dest = inst.dest
            if dest.freed:
                pool.append(inst)
                continue
            k = first = inst.next_elem
            length = dest.length
            a_reg = inst.a_reg
            b_reg = inst.b_reg
            while k < length:
                ready = 0
                if a_reg is None:
                    a = inst.a_val
                else:
                    i = k + inst.a_off
                    t = a_reg.r_time[i]
                    if t is None:
                        if not (a_reg.defunct or a_reg.freed):
                            sleep_on_register(a_reg, inst)
                            break
                    else:
                        ready = t
                    a = a_reg.values[i]
                if b_reg is None:
                    b = inst.b_val
                else:
                    i = k + inst.b_off
                    t = b_reg.r_time[i]
                    if t is None:
                        if not (b_reg.defunct or b_reg.freed):
                            sleep_on_register(b_reg, inst)
                            break
                    elif t > ready:
                        ready = t
                    b = b_reg.values[i]
                if k == first:
                    # The run has at least one element: bind the timing and
                    # value state (a blocked visit never gets this far).
                    r_time = dest.r_time
                    values = dest.values
                    fn = inst.fn
                    latency = inst.latency
                    units = fu_free[inst.fu_class]
                    unit = inst.fu_unit
                    if unit is None:
                        unit = min(range(len(units)), key=units.__getitem__)
                        inst.fu_unit = unit
                        prev = max(now, units[unit], inst.alloc_cycle + 1) - 1
                    else:
                        prev = inst.last_issue
                prev = prev + 1 if prev + 1 > ready else ready
                r_time[k] = prev + latency
                values[k] = fn(a, b)
                k += 1
            if k > first:
                inst.last_issue = prev
                if units[unit] <= prev:
                    units[unit] = prev + 1
                inst.next_elem = k
                sleepers = dest.sleepers
                if sleepers is not None:
                    # wake_element for each scheduled element, inlined.
                    parked = self.parked
                    for j in range(first, k):
                        waiting = sleepers[j]
                        if waiting is not None:
                            sleepers[j] = None
                            t = r_time[j]
                            for fl in waiting:
                                if not fl.squashed:
                                    heappush(parked, (t, fl.seq, fl))
                sleepers = dest.alu_sleepers
                if sleepers is not None:
                    dest.alu_sleepers = None
                    for w in sleepers:
                        if w.order > order:
                            heappush(due, (w.order, w))
                        else:
                            later.append((w.order, w))
                if k == length:
                    pool.append(inst)
        if later:
            due.extend(later)
            heapify(due)

    def complete_garbage(self, reg: VectorRegister, elem: int) -> None:
        """Complete the fetch of element ``elem`` of defunct register
        ``reg`` at cycle 0 with a garbage value, so its dependents' timing
        resolves (they are squashed before commit); it takes no port."""
        reg.r_time[elem] = 0
        if reg.sleepers is not None:
            wake_element(reg, elem, 0, self.parked)
        if reg.alu_sleepers is not None:
            wake_instances(reg, self.woken_alu)

    # ------------------------------------------------------------------
    # Validation execution & commit
    # ------------------------------------------------------------------

    def on_validation_failure(self, fl, now: int) -> None:
        """Misspeculation: drop the mapping, punish the stride entry.

        The failing instruction is about to be squashed and re-decoded in
        scalar mode; its VRMT rollback is forced to *invalidate* rather
        than restore, so a chained trigger whose predicted base was wrong
        cannot re-chain from the stale previous instance on re-decode.
        """
        self.stats.validation_failures += 1
        pc = fl.entry.pc
        bus = self._bus
        dropped_mapping = self.vrmt.table.peek(pc) is fl.vreg
        if dropped_mapping:
            self.vrmt.invalidate(pc)
        was_dead = fl.vreg.freed or fl.vreg.defunct
        fl.vreg.defunct = True
        if fl.vreg.alu_sleepers is not None:
            wake_instances(fl.vreg, self.woken_alu)
        fl.vrmt_rollback = (pc, None, 0)
        demoted = False
        if fl.vreg.is_load:
            demoted = self.tl.punish(pc)
        if bus is not None:
            bus.emit(
                now, VALIDATE_FAIL, pc=pc, seq=fl.entry.seq,
                elem=fl.velem,
                reason="dead_register" if was_dead else "addr_mismatch"
                if fl.vreg.is_load else "operand_mismatch",
            )
            if dropped_mapping:
                bus.emit(now, VRMT_INVALIDATE, pc=pc, reason="validation_failure")
            if demoted:
                bus.emit(now, TL_DEMOTE, pc=pc, reason="validation_failure")
        if self._metrics is not None:
            self._metrics.histogram("validate.fail.pc").observe(pc)
        self._maybe_free(fl.vreg, now)

    def on_validation_commit(self, fl, now: int, ports) -> None:
        """A validation (or trigger) reached commit: element becomes Valid."""
        reg: VectorRegister = fl.vreg
        k = fl.velem
        if self._check_invariants:
            expected = fl.entry.value
            got = reg.values[k]
            if got != expected and not (
                isinstance(got, float)
                and isinstance(expected, float)
                and got != got
                and expected != expected
            ):  # NaN compares unequal to itself but is the same datum
                raise MisspeculationError(
                    f"validation committed wrong value at pc {fl.entry.pc} "
                    f"seq {fl.entry.seq} elem {k}: vector={got!r} "
                    f"architectural={expected!r}"
                )
        bit = 1 << k
        reg.v_bits |= bit
        reg.u_bits &= ~bit
        if reg.is_load:
            txn = reg.txn_ids[k]
            if txn is not None:
                ports.element_validated(txn)
            if k == reg.length - 1:
                self.tl.reward(fl.entry.pc)
        if fl.counts_as_validation:
            self.stats.validations_committed += 1
            if self._bus is not None:
                self._bus.emit(
                    now, VALIDATE_PASS, pc=fl.entry.pc, seq=fl.entry.seq,
                    elem=k, load=reg.is_load,
                )
        if not reg.u_bits:
            self._maybe_free(reg, now)

    def on_flush_entry(self, fl, now: int) -> None:
        """Roll back the decode-time effects of one squashed instruction
        (called youngest-first).  Vector registers themselves survive —
        §3.5's control-flow independence — only the scalar-side bookkeeping
        (VRMT offsets, U flags) rewinds."""
        rb = fl.vrmt_rollback
        if rb is not None:
            pc, prev, offset = rb
            if prev is None:
                self.vrmt.table.invalidate(pc)
            else:
                # The register mapped before the decode, changed only in
                # ``offset`` since the rollback was taken: rewind, remap.
                prev.offset = offset
                self.vrmt.reinstall(pc, prev)
        reg: Optional[VectorRegister] = fl.vreg
        if reg is not None and not reg.freed and fl.velem >= 0:
            reg.u_bits &= ~(1 << fl.velem)
            self._maybe_free(reg, now)

    # ------------------------------------------------------------------
    # Store coherence (§3.6)
    # ------------------------------------------------------------------

    def on_store_commit(self, addr: int, now: int) -> bool:
        """Check a committing store against all live load-register ranges.

        Returns True when the store invalidated at least one register that
        still had speculative (unvalidated) elements — the machine must
        then squash every younger instruction.
        """
        if _DEBUG_SKIP_STORE_RANGE_CHECK:
            return False
        # The register file's coherence index tests every live load
        # register's [first, last] range against ``addr`` in one batched
        # kernel call; only actual range hits are walked below.
        candidates = self.vrf.coherence_candidates(addr)
        if not candidates:
            return False
        conflict = False
        bus = self._bus
        hit_pcs: List[int] = []
        for reg in candidates:
            if reg.defunct:
                # A defunct register takes no *new* validations, but ones
                # already in flight (U set) against unvalidated elements
                # can still reach commit carrying a value fetched before
                # this store — the store must still force the flush.  (The
                # mapping drop / TL punishment already happened when the
                # register went defunct.)
                live_u = reg.u_bits & ~reg.v_bits
                if not live_u or not any(
                    (live_u >> k) & 1 and reg.pred_addrs[k] == addr
                    for k in range(reg.start_offset, reg.length)
                ):
                    continue
                conflict = True
                hit_pcs.append(reg.pc)
                continue
            # Only elements that are still speculative can be corrupted:
            # an already-validated element's load instance committed before
            # this store, so the architectural order is load-then-store and
            # the old value was the correct one.  (In-place stream updates —
            # y[i] = f(y[i]) — rely on this: the store to y[i] always lands
            # on the just-validated element, never on the speculative tail.)
            spec = reg.full_mask & ~reg.v_bits
            if not any(
                (spec >> k) & 1 and reg.pred_addrs[k] == addr
                for k in range(reg.start_offset, reg.length)
            ):
                continue
            conflict = True
            reg.defunct = True
            # Defunct, it goes as soon as no validation is in flight; the
            # next sweep (or the commit that clears its last U) frees it.
            self._free_candidates.add(reg)
            if reg.alu_sleepers is not None:
                wake_instances(reg, self.woken_alu)
            hit_pcs.append(reg.pc)
            if self.vrmt.table.peek(reg.pc) is reg:
                self.vrmt.invalidate(reg.pc)
                if bus is not None:
                    bus.emit(now, VRMT_INVALIDATE, pc=reg.pc, reason="coherence")
            demoted = self.tl.punish(reg.pc)
            if demoted and bus is not None:
                bus.emit(now, TL_DEMOTE, pc=reg.pc, reason="coherence")
        if conflict:
            self.stats.store_conflicts += 1
            # One squash event per conflicting *store* so the event count
            # cross-checks against SimStats.store_conflicts.
            if bus is not None:
                bus.emit(now, SQUASH_COHERENCE, addr=addr, pcs=hit_pcs)
            if self._metrics is not None:
                hist = self._metrics.histogram("squash.coherence.pc")
                for pc in hit_pcs:
                    hist.observe(pc)
        return conflict

    # ------------------------------------------------------------------
    # Freeing & loop tracking (§3.3)
    # ------------------------------------------------------------------

    def on_backward_branch_commit(self, pc: int, now: int) -> None:
        """Update GMRBB; a change may release any register via rule 2, so
        every live one is checked (which also rebuilds the candidates)."""
        if pc != self.gmrbb:
            self.gmrbb = pc
            self._free_candidates.clear()
            for reg in self.vrf.live_registers():
                self._maybe_free(reg, now)

    def _maybe_free(self, reg: VectorRegister, now: int) -> None:
        """Release ``reg`` if one of §3.3's two rules holds at ``now``.

        A register with a validation in flight (any U) stays.  A defunct
        one goes as soon as none is.  Otherwise every element must be
        computed (R: ``r_time <= now``) and either rule 1 holds — every
        element freed (F) — or rule 2 — every validated element freed and
        the allocating loop terminated (MRBB differs from GMRBB).

        This runs on every commit-side event (the machine's commit stage
        raises F flags and calls it directly) and the common outcome is
        "not yet", hence the plain loops and early returns.  A register
        that fails only on time joins ``_free_candidates``.
        """
        if reg.freed or reg.u_bits:
            return
        if not reg.defunct:
            if reg.f_bits != reg.full_mask:
                # Rule 1 failed; rule 2 needs a terminated loop and every
                # validated element freed.  Both tests are O(1), so they
                # go before the per-element scan below.
                if reg.mrbb == self.gmrbb:
                    return
                if reg.v_bits & ~reg.f_bits:
                    return
            for t in reg.r_time:
                if t is None or t > now:
                    self._free_candidates.add(reg)
                    return
        stats = self.stats
        if not reg.defunct:
            # Every element is computed: Fig 15's fates in closed form
            # (what element_fates counts, one element at a time).
            start = reg.start_offset
            used = (reg.v_bits >> start).bit_count()
            stats.elements_computed_used += used
            stats.elements_computed_unused += reg.length - start - used
            stats.elements_not_computed += start
        else:
            used, unused, not_computed = reg.element_fates(now)
            stats.elements_computed_used += used
            stats.elements_computed_unused += unused
            stats.elements_not_computed += not_computed
        stats.registers_freed += 1
        self.vrf.free(reg)
        self._free_candidates.discard(reg)

    def _sweep_frees(self, now: int) -> None:
        """Free what §3.3's rules release at ``now`` (after an allocation
        failure), checking only ``_free_candidates``, in slot order.

        That is exact: every flag a release rule reads changes only at an
        event that checks the register it changed on the spot (commit
        raising F or clearing U, a flush clearing U, a validation
        failure), except a store-conflict defunct, which adds its register
        here, and a GMRBB change, which checks every register.  So a
        register that can be freed now either passed every flag test at
        its last check and failed only on time — a candidate — or was
        freed then.  A candidate whose flags fail now leaves the set until
        the next such event.
        """
        candidates = self._free_candidates
        if candidates:
            regs = sorted(candidates, key=_SLOT)
            candidates.clear()
            for reg in regs:
                self._maybe_free(reg, now)

    # ------------------------------------------------------------------

    def finalize(self, now: int) -> None:
        """End of run: account element fates of still-live registers, and
        the instance totals (every vector instance allocates one
        register)."""
        stats = self.stats
        for reg in self.vrf.live_registers():
            used, unused, not_computed = reg.element_fates(now)
            stats.elements_computed_used += used
            stats.elements_computed_unused += unused
            stats.elements_not_computed += not_computed
        stats.vector_instances = stats.vector_load_instances + stats.vector_alu_instances
        stats.registers_allocated = stats.vector_instances
        metrics = self._metrics
        if metrics is not None:
            metrics.gauge("engine.tl.entries").set(len(self.tl.table))
            metrics.gauge("engine.tl.occupancy").set(self.tl.table.occupancy())
            metrics.gauge("engine.vrmt.entries").set(len(self.vrmt))
            metrics.gauge("engine.vrmt.occupancy").set(self.vrmt.table.occupancy())
            metrics.gauge("engine.vrmt.evictions").set(self.vrmt.table.evictions)
            metrics.gauge("engine.vrmt.orphaned_registers").set(
                self.vrmt.orphaned_registers
            )
