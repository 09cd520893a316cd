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

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple, Union

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
from .vrmt import VRMT, VRMTEntry

Number = Union[int, float]

#: Decode outcomes: the first field of a decode tuple.  The two vector
#: outcomes carry the machine's window-kind numbers.
SCALAR = 0  # execute normally (the instruction still touched the VRMT)
VALIDATION = 3  # check one vector element, no execution
TRIGGER = 4  # created a vector instance; commits its start element

#: A decode result: ``(kind, reg, elem, pred_addr, counts_as_validation,
#: vrmt_rollback)``, or None for a plain scalar that touched no engine
#: state.  ``counts_as_validation`` marks Fig 14's validation ops (a
#: chained creation validates element 0 of its new register, so it is
#: both a trigger and a validation).  ``vrmt_rollback`` is the squash
#: rollback ``(pc, entry-or-None, offset)``: ``entry`` is the *original*
#: :class:`VRMTEntry` object (only its ``offset`` ever mutates after
#: creation, so reinstalling it with the saved offset restores the exact
#: pre-decode state); None means there was no mapping to restore.
Decoded = Optional[Tuple[int, Optional[VectorRegister], int, Optional[int], bool, Tuple]]

#: the second ALU operand of a single-source opcode: broadcast constant 0.
_ZERO_OPERAND = (None, 0, 0)

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


def _operand(tok, start: int, value: Number) -> Tuple:
    """One ALU operand as ``(reg, offset, value)`` for a vector token
    ``(reg, elem)`` or, when ``tok`` is None, a broadcast scalar."""
    if tok is None:
        return (None, 0, value)
    return (tok[0], tok[1] - start, 0)

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
    broadcast scalar/immediate ``value`` (§3.4).  They land in the two
    ALU operand fields the datapath reads per element (``a_*`` and
    ``b_*``); a single-source opcode gets a constant 0 second operand.
    ``fn`` is the opcode's callable from the dispatch table
    :func:`~repro.functional.semantics.apply_alu` uses; it and the FU
    class and latency come from the instruction's per-PC decode.

    Elements are scheduled individually as their source elements become
    available (a load source's elements arrive one fetch at a time),
    flowing through one pipelined vector FU at one element per cycle.

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
        "asleep",
    )

    def __init__(
        self,
        dest: VectorRegister,
        layout: AluLayout,
        operands: List[Tuple],
        start: int,
        alloc_cycle: int,
    ) -> None:
        self.dest = dest
        self.fn, self.fu_class, self.latency = layout[0], layout[1], layout[2]
        self.a_reg, self.a_off, self.a_val = operands[0]
        self.b_reg, self.b_off, self.b_val = (
            operands[1] if len(operands) > 1 else _ZERO_OPERAND
        )
        self.alloc_cycle = alloc_cycle
        #: next destination element awaiting scheduling.
        self.next_elem = start
        #: issue slot of the previously scheduled element (pipelining;
        #: read only once the instance holds its FU).
        self.last_issue = -1
        #: index of the vector FU this instance occupies (set lazily, when
        #: its first element is ready).
        self.fu_unit: Optional[int] = None
        #: blocked on a source register until it changes
        #: (:func:`~repro.core.vector_regfile.sleep_on_register`).
        self.asleep = False

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
        #: element fetches awaiting an L1 port: (reg, elem, addr).
        self.pending_fetches: Deque[Tuple[VectorRegister, int, int]] = deque()
        #: vector ALU work not yet scheduled onto a vector FU.
        self.pending_alu: List[VectorAluInstance] = []
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
        #: recycled VectorAluInstance records (see tick()).
        self._alu_pool: List[VectorAluInstance] = []
        #: static ALU decode per PC, built at the PC's first ALU decode.
        self._alu_layouts: Dict[int, AluLayout] = {}

    # ------------------------------------------------------------------
    # Decode-time decisions
    # ------------------------------------------------------------------

    def decode_load(self, entry, now: int, first_time: bool) -> Decoded:
        """Classify a dynamic load: scalar, validation, or vector trigger.

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

        mapping = self.vrmt.lookup(pc)
        if mapping is not None:
            return self._load_validation(pc, mapping, now)
        if vectorizable and stride is not None:
            return self._new_load_instance(
                pc, addr, stride, now, None, entry.op is Opcode.FLD
            )
        return None

    def _load_validation(self, pc: int, mapping: VRMTEntry, now: int) -> Decoded:
        """VRMT hit for a load: validate the next element (chaining at VL)."""
        elem = mapping.offset
        if elem >= self.vl:
            # §3.2: offset reached the register length -> spawn the next
            # vector instance; this dynamic instance validates its elem 0.
            prev = mapping.reg
            stride = (
                prev.pred_addrs[1] - prev.pred_addrs[0]
                if self.vl > 1
                else (self.tl.stride_of(pc) or 0)
            )
            base = prev.pred_addrs[-1] + stride
            return self._new_load_instance(pc, base, stride, now, mapping, prev.fp_load)
        mapping.offset = elem + 1
        reg = mapping.reg
        reg.u_bits |= 1 << elem
        return (VALIDATION, reg, elem, reg.pred_addrs[elem], True, (pc, mapping, elem))

    def _new_load_instance(
        self,
        pc: int,
        base_addr: int,
        stride: int,
        now: int,
        prev: Optional[VRMTEntry],
        fp: bool,
    ) -> Decoded:
        """Allocate a register and launch element fetches for a load.

        ``prev`` is the live mapping a chained creation replaces (None for
        a fresh one); either way it is the pre-decode VRMT state."""
        rollback = (pc, None, 0) if prev is None else (pc, prev, prev.offset)
        reg = self.vrf.allocate(pc, is_load=True, start_offset=0, mrbb=self.gmrbb)
        if reg is None:
            self.stats.vreg_alloc_failures += 1
            self._sweep_frees(now)
            # A chained creation keeps its mapping, so a later instance
            # can retry the chain; a fresh one touched nothing.
            return None if prev is None else (SCALAR, None, -1, None, False, rollback)
        reg.fp_load = fp
        reg.set_load_addresses(base_addr, stride)
        self.vrf.index_load(reg)
        self._enqueue_load_fetches(reg)
        self.vrmt.insert(pc, VRMTEntry(reg, 1))
        reg.u_bits |= 1
        self.stats.vector_instances += 1
        self.stats.vector_load_instances += 1
        self.stats.registers_allocated += 1
        chained = prev is not None
        bus = self._bus
        if bus is not None:
            bus.emit(
                now, TL_PROMOTE, pc=pc,
                stride=stride, base=base_addr, chained=chained,
            )
            bus.emit(now, VRMT_MAP, pc=pc, slot=reg.slot, gen=reg.gen, load=True)
        return (TRIGGER, reg, 0, reg.pred_addrs[0], chained, rollback)

    # ------------------------------------------------------------------

    def decode_alu(self, entry, t1, t2, now: int) -> Decoded:
        """Classify a dynamic arithmetic instruction.

        ``t1`` / ``t2`` are the rename tokens of its ``rs1`` / ``rs2``
        sources (None when absent or the zero register): a ``(reg, elem)``
        tuple for a vector-mapped source — ``elem`` is the element of the
        current iteration — and anything else for a scalar-mapped one,
        whose value is ``entry.s1`` / ``entry.s2``.
        """
        pc = entry.pc
        v1 = t1 if type(t1) is tuple else None
        v2 = t2 if type(t2) is tuple else None
        mapping = self.vrmt.lookup(pc)
        if mapping is None and v1 is None and v2 is None:
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

        if mapping is None:
            return self._new_alu_instance(
                entry, layout, v1, v2, scalar_value, (pc, None, 0), now
            )
        offset = mapping.offset
        rollback = (pc, mapping, offset)
        if offset < self.vl and (
            mapping.scalar_value is None or mapping.scalar_value == scalar_value
        ):
            # §3.2's operand check on the renamed sources: each must be
            # scalar again, or the same vector register the instance was
            # created from at the element this validation's dest element
            # was computed from (the rename table's offset field, Fig 6).
            # A PC's operand layout is static, so scalar and immediate
            # positions always match.
            shift = offset - mapping.reg.start_offset
            r1 = mapping.src1
            r2 = mapping.src2
            if (
                (r1 is None if v1 is None
                 else r1 is not None and v1[0] is r1[0] and v1[1] == r1[1] + shift)
                and (r2 is None if v2 is None
                     else r2 is not None and v2[0] is r2[0] and v2[1] == r2[1] + shift)
            ):
                mapping.offset = offset + 1
                reg = mapping.reg
                reg.u_bits |= 1 << offset
                return (VALIDATION, reg, offset, None, True, rollback)
        # Offset exhausted or operands changed: retire this mapping and
        # (if still fed by vector operands) chain a new instance.
        self.vrmt.invalidate(pc)
        if self._bus is not None:
            self._bus.emit(
                now, VRMT_INVALIDATE, pc=pc,
                reason="exhausted" if offset >= self.vl else "operands",
            )
        if v1 is None and v2 is None:
            return (SCALAR, None, -1, None, False, rollback)
        return self._new_alu_instance(entry, layout, v1, v2, scalar_value, rollback, now)

    def _new_alu_instance(
        self,
        entry,
        layout: AluLayout,
        v1: Optional[Tuple],
        v2: Optional[Tuple],
        scalar_value: Optional[Number],
        rollback: Tuple,
        now: int,
    ) -> Decoded:
        """Allocate a register for a vector ALU instance (at least one of
        the vector tokens ``v1`` / ``v2`` is set; :meth:`decode_alu`
        checks)."""
        pc = entry.pc
        start = 0 if v1 is None else v1[1]
        if v2 is not None and v2[1] > start:
            start = v2[1]
        reg = self.vrf.allocate(pc, is_load=False, start_offset=start, mrbb=self.gmrbb)
        if reg is None:
            self.stats.vreg_alloc_failures += 1
            self._sweep_frees(now)
            return (SCALAR, None, -1, None, False, rollback)
        operands: List[Tuple] = []
        if layout[3]:
            operands.append(_operand(v1, start, entry.s1))
        form2 = layout[4]
        if form2 == _SRC2_REG:
            operands.append(_operand(v2, start, entry.s2))
        elif form2 == _SRC2_IMM:
            operands.append((None, 0, entry.imm))
        pool = self._alu_pool
        if pool:
            instance = pool.pop()
            instance.reset(reg, layout, operands, start, now)
        else:
            instance = VectorAluInstance(reg, layout, operands, start, now)
        self.pending_alu.append(instance)
        self.vrmt.insert(pc, VRMTEntry(reg, start + 1, v1, v2, scalar_value))
        reg.u_bits |= 1 << start
        self.stats.vector_instances += 1
        self.stats.vector_alu_instances += 1
        self.stats.registers_allocated += 1
        if start:
            self.stats.offset_instances += 1
        if self._bus is not None:
            self._bus.emit(
                now, VRMT_MAP, pc=pc,
                slot=reg.slot, gen=reg.gen, load=False, start=start,
            )
        return (TRIGGER, reg, start, None, False, rollback)

    # ------------------------------------------------------------------
    # The vector datapath
    # ------------------------------------------------------------------

    def tick(self, now: int) -> None:
        """Advance the vector ALU datapath by one cycle: one pass over the
        pending instances that both times and computes every element whose
        sources now have known compute times.

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
        sleep on that source register; until the register changes, passes
        skip the instance in place, after the checks on its own
        destination, so the visit order and every visit that can make
        progress are those of a full scan.
        """
        if not self.pending_alu:
            return
        pool = self._alu_pool
        fu_free = self.vec_fu_free
        remaining = []
        for inst in self.pending_alu:
            dest = inst.dest
            if dest.freed:
                pool.append(inst)
                continue
            k = inst.next_elem
            length = dest.length
            if inst.asleep:
                remaining.append(inst)
                continue
            first = k
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
                if dest.sleepers is not None:
                    for j in range(first, k):
                        wake_element(dest, j, r_time[j], self.parked)
                if dest.alu_sleepers is not None:
                    wake_instances(dest)
                if k == length:
                    pool.append(inst)
                    continue
            remaining.append(inst)
        self.pending_alu = remaining

    def take_fetches(self, limit: int) -> List[Tuple[VectorRegister, int, int]]:
        """Pop up to ``limit`` live element fetches for the memory stage.

        Fetches whose register died (squash-orphaned then freed, or
        defunct) are completed in place with garbage so dependents'
        timing can resolve; they consume no port.
        """
        out: List[Tuple[VectorRegister, int, int]] = []
        while self.pending_fetches and len(out) < limit:
            reg, elem, addr = self.pending_fetches.popleft()
            if reg.freed or reg.defunct:
                if not reg.freed and reg.r_time[elem] is None:
                    self._complete_garbage(reg, elem)
                continue
            out.append((reg, elem, addr))
        return out

    def _complete_garbage(self, reg: VectorRegister, elem: int) -> None:
        """Complete a dropped element fetch at cycle 0 with a garbage
        value, so its dependents' timing resolves."""
        reg.r_time[elem] = 0
        if reg.sleepers is not None:
            wake_element(reg, elem, 0, self.parked)
        if reg.alu_sleepers is not None:
            wake_instances(reg)

    def _enqueue_load_fetches(self, reg: VectorRegister) -> None:
        """Queue a fetch for every element of ``reg`` at its creation: the
        paper's eager whole-register fetch (§3.2)."""
        self.pending_fetches.extend(
            (reg, k, addr) for k, addr in enumerate(reg.pred_addrs)
        )

    def requeue_fetches(self, fetches: List[Tuple[VectorRegister, int, int]]) -> None:
        """Return unserviced fetches (no port / MSHR full) to the queue."""
        for item in reversed(fetches):
            self.pending_fetches.appendleft(item)

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
        mapping = self.vrmt.table.peek(pc)
        dropped_mapping = mapping is not None and mapping.reg is fl.vreg
        if dropped_mapping:
            self.vrmt.invalidate(pc)
        was_dead = fl.vreg.freed or fl.vreg.defunct
        fl.vreg.defunct = True
        if fl.vreg.alu_sleepers is not None:
            wake_instances(fl.vreg)
        fl.vrmt_rollback = (pc, None, 0)
        demoted = False
        if fl.vreg.is_load:
            demoted = self.tl.punish(pc)
        if bus is not None:
            bus.emit(
                now, VALIDATE_FAIL, pc=pc, seq=fl.entry.seq,
                elem=fl.velem,
                reason="dead_register" if was_dead else "addr_mismatch"
                if fl.pred_addr is not None else "operand_mismatch",
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
                # The original entry object, mutated only in ``offset``
                # since the rollback was taken: rewind and reinstall.
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
            if reg.alu_sleepers is not None:
                wake_instances(reg)
            hit_pcs.append(reg.pc)
            mapping = self.vrmt.table.peek(reg.pc)
            if mapping is not None and mapping.reg is reg:
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
        """Update GMRBB; a change may release registers via rule 2."""
        if pc != self.gmrbb:
            self.gmrbb = pc
            self._sweep_frees(now)

    def _maybe_free(self, reg: VectorRegister, now: int) -> None:
        """Release ``reg`` if one of §3.3's two rules holds at ``now``.

        A register with a validation in flight (any U) stays.  A defunct
        one goes as soon as none is.  Otherwise every element must be
        computed (R: ``r_time <= now``) and either rule 1 holds — every
        element freed (F) — or rule 2 — every validated element freed and
        the allocating loop terminated (MRBB differs from GMRBB).

        This runs on every commit-side event (the machine's commit stage
        raises F flags and calls it directly) and the common outcome is
        "not yet", hence the plain loops and early returns.
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

    def _sweep_frees(self, now: int) -> None:
        for reg in self.vrf.live_registers():
            self._maybe_free(reg, now)

    # ------------------------------------------------------------------

    def finalize(self, now: int) -> None:
        """End of run: account element fates of still-live registers."""
        for reg in self.vrf.live_registers():
            used, unused, not_computed = reg.element_fates(now)
            self.stats.elements_computed_used += used
            self.stats.elements_computed_unused += unused
            self.stats.elements_not_computed += not_computed
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
