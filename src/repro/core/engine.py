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

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple, Union

from typing import TYPE_CHECKING

from ..functional.semantics import alu_function
from ..isa.opcodes import FU_LATENCY, Opcode, fu_class_of
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
from .vector_regfile import VectorRegister, VectorRegisterFile
from .vrmt import VRMT, VRMTEntry

Number = Union[int, float]

#: sentinel distinguishing "no scalar source seen" from a captured None.
_NO_SCALAR = object()

#: the second ALU operand of a single-source opcode: broadcast constant 0.
_ZERO_OPERAND = (None, 0, 0)

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


class DecodeKind(enum.Enum):
    """What the decode stage turned a dynamic instruction into."""

    SCALAR = "scalar"  # execute normally
    VALIDATION = "validation"  # check one vector element, no execution
    TRIGGER = "trigger"  # created a vector instance; commits its start element


@dataclass(slots=True)
class Decision:
    """Decode-time outcome for one dynamic instruction."""

    kind: DecodeKind
    reg: Optional[VectorRegister] = None
    elem: int = -1
    pred_addr: Optional[int] = None
    #: True when the dynamic instance is a validation op for Fig 14's count
    #: (chained creations validate element 0 of the new register, so they
    #: are both TRIGGER and a validation).
    counts_as_validation: bool = False
    #: VRMT rollback data for squashes: ``(pc, entry-or-None, offset)``,
    #: or None when the decision did not touch the VRMT.  ``entry`` is the
    #: *original* :class:`VRMTEntry` object (only its ``offset`` field
    #: ever mutates after creation, so reinstalling it with the saved
    #: offset restores the exact pre-decode state without allocating a
    #: snapshot copy); None means there was no mapping to restore.
    vrmt_rollback: Optional[Tuple[int, Optional[VRMTEntry], int]] = None


#: Shared plain-scalar decision for the hottest decode outcome (no VRMT
#: state touched, nothing to roll back).  Decode paths that later attach a
#: ``vrmt_rollback`` must construct a fresh instance instead.
_SCALAR_DECISION = Decision(DecodeKind.SCALAR)




class VectorAluInstance:
    """A pending vector arithmetic operation (element-wise, pipelined).

    Operands arrive split once, at creation, as ``(reg, offset, value)``
    triples in ISA source order: destination element ``k`` reads element
    ``k + offset`` of vector source ``reg``, or, when ``reg`` is None, the
    broadcast scalar/immediate ``value`` (§3.4).  They land in the two
    ALU operand fields the datapath reads per element (``a_*`` and
    ``b_*``); a single-source opcode gets a constant 0 second operand.
    ``fn`` is the opcode's callable from the dispatch table
    :func:`~repro.functional.semantics.apply_alu` uses.

    Elements are scheduled individually as their source elements become
    available (sources may themselves trickle in when element fetching is
    throttled), flowing through one pipelined vector FU at one element per
    cycle.

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
    )

    def __init__(
        self,
        dest: VectorRegister,
        op: Opcode,
        operands: List[Tuple],
        start: int,
        alloc_cycle: int,
    ) -> None:
        self.dest = dest
        self.fn = alu_function(op)
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
        #: FU class / latency for ``op``, fixed per instance (set once here
        #: so the per-cycle scheduler skips the per-call table lookups).
        self.fu_class = fu_class_of(op)
        self.latency = FU_LATENCY[self.fu_class]

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
        #: vector FU pools (mirrors the scalar pool sizes, Table 1).
        self.vec_fu_free = {
            cls: [0] * count for cls, count in config.fu_pool_sizes().items()
        }
        # Hoisted configuration scalars (read in per-cycle/per-commit paths).
        self._cancel_dead = vc.cancel_dead_fetches
        self._fetch_ahead = vc.fetch_ahead
        self._check_invariants = config.check_invariants
        #: single scratch Decision mutated in place by the decode paths:
        #: dispatch copies every field out before the next decode call, so
        #: one record serves the whole run (allocation-churn removal).
        self._decision = Decision(DecodeKind.SCALAR)
        #: recycled VectorAluInstance records (see tick()).
        self._alu_pool: List[VectorAluInstance] = []

    # ------------------------------------------------------------------
    # Decode-time decisions
    # ------------------------------------------------------------------

    def _decide(
        self,
        kind: DecodeKind,
        reg: Optional[VectorRegister] = None,
        elem: int = -1,
        pred_addr: Optional[int] = None,
        counts_as_validation: bool = False,
        vrmt_rollback: Optional[Tuple[int, Optional[VRMTEntry], int]] = None,
    ) -> Decision:
        """Fill and return the engine's scratch :class:`Decision`.

        Valid only until the next decode call — the dispatch stage copies
        the fields into its in-flight record immediately.  Paths that
        never mutate the result may still return the shared
        ``_SCALAR_DECISION`` instead.
        """
        d = self._decision
        d.kind = kind
        d.reg = reg
        d.elem = elem
        d.pred_addr = pred_addr
        d.counts_as_validation = counts_as_validation
        d.vrmt_rollback = vrmt_rollback
        return d

    def decode_load(self, entry, now: int, first_time: bool) -> Decision:
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
            return self._load_validation(pc, addr, mapping, now)
        if vectorizable and stride is not None:
            return self._new_load_instance(
                pc, addr, stride, now, chained=False,
                fp=entry.op is Opcode.FLD,
            )
        return _SCALAR_DECISION

    def _load_validation(self, pc: int, addr: int, mapping: VRMTEntry, now: int) -> Decision:
        """VRMT hit for a load: validate the next element (chaining at VL)."""
        rollback = (pc, mapping, mapping.offset)
        if mapping.offset >= self.vl:
            # §3.2: offset reached the register length -> spawn the next
            # vector instance; this dynamic instance validates its elem 0.
            prev = mapping.reg
            stride = (
                prev.pred_addrs[1] - prev.pred_addrs[0]
                if self.vl > 1
                else (self.tl.stride_of(pc) or 0)
            )
            base = prev.pred_addrs[-1] + stride
            decision = self._new_load_instance(
                pc, base, stride, now, chained=True, actual_addr=addr,
                fp=prev.fp_load,
            )
            # Scalar outcome (pool empty): the mapping stays so a later
            # instance can retry the chain; either way the pre-decode
            # state is this mapping at its old offset.
            decision.vrmt_rollback = rollback
            return decision
        elem = mapping.offset
        mapping.offset += 1
        reg = mapping.reg
        reg.u_bits |= 1 << elem
        return self._decide(
            DecodeKind.VALIDATION,
            reg=reg,
            elem=elem,
            pred_addr=reg.pred_addrs[elem],
            counts_as_validation=True,
            vrmt_rollback=rollback,
        )

    def _new_load_instance(
        self,
        pc: int,
        base_addr: int,
        stride: int,
        now: int,
        chained: bool,
        actual_addr: Optional[int] = None,
        fp: bool = False,
    ) -> Decision:
        """Allocate a register and launch element fetches for a load."""
        prev_state = self.vrmt.table.peek(pc)
        rollback = (pc, prev_state, prev_state.offset if prev_state is not None else 0)
        reg = self.vrf.allocate(pc, is_load=True, start_offset=0, mrbb=self.gmrbb)
        if reg is None:
            self.stats.vreg_alloc_failures += 1
            self._sweep_frees(now)
            # Scratch, not _SCALAR_DECISION: the caller may attach rollback.
            return self._decide(DecodeKind.SCALAR)
        reg.fp_load = fp
        reg.set_load_addresses(base_addr, stride)
        self.vrf.index_load(reg)
        ahead = self._fetch_ahead
        self._enqueue_load_fetches(reg, self.vl - 1 if ahead <= 0 else ahead)
        self.vrmt.insert(pc, VRMTEntry(reg, offset=1))
        reg.u_bits |= 1
        self.stats.vector_instances += 1
        self.stats.vector_load_instances += 1
        self.stats.registers_allocated += 1
        bus = self._bus
        if bus is not None:
            bus.emit(
                now, TL_PROMOTE, pc=pc,
                stride=stride, base=base_addr, chained=chained,
            )
            bus.emit(now, VRMT_MAP, pc=pc, slot=reg.slot, gen=reg.gen, load=True)
        return self._decide(
            DecodeKind.TRIGGER,
            reg=reg,
            elem=0,
            pred_addr=reg.pred_addrs[0],
            counts_as_validation=chained,
            vrmt_rollback=rollback,
        )

    # ------------------------------------------------------------------

    def decode_alu(
        self,
        entry,
        src_descs: Tuple[Tuple, ...],
        now: int,
    ) -> Decision:
        """Classify a dynamic arithmetic instruction.

        ``src_descs`` carries one descriptor per ISA source position:
        ``("V", reg, elem)`` for a vector-mapped register (``elem`` is the
        element index of the current iteration), ``("S", logical, value)``
        for a scalar-mapped register with its architectural value, or
        ``("imm", value)``.
        """
        pc = entry.pc
        # One pass over the descriptors (decode hot path).
        any_vector = False
        scalar_value = first_scalar = _NO_SCALAR
        for d in src_descs:
            tag = d[0]
            if tag == "V":
                any_vector = True
            elif tag == "S" and first_scalar is _NO_SCALAR:
                first_scalar = d[2]
        mapping = self.vrmt.lookup(pc)
        if mapping is None and not any_vector:
            return _SCALAR_DECISION

        # §3.2's captured scalar value: only mixed instances record one.
        scalar_value = (
            first_scalar if any_vector and first_scalar is not _NO_SCALAR else None
        )

        if mapping is not None:
            rollback = (pc, mapping, mapping.offset)
            if mapping.offset < self.vl:
                matches = self._operands_match(mapping, src_descs, scalar_value)
                if matches and self._source_elems_aligned(mapping, src_descs):
                    elem = mapping.offset
                    mapping.offset += 1
                    reg = mapping.reg
                    reg.u_bits |= 1 << elem
                    return self._decide(
                        DecodeKind.VALIDATION,
                        reg=reg,
                        elem=elem,
                        counts_as_validation=True,
                        vrmt_rollback=rollback,
                    )
            # Offset exhausted or operands changed: retire this mapping and
            # (if still fed by vector operands) chain a new instance.
            self.vrmt.invalidate(pc)
            if self._bus is not None:
                self._bus.emit(
                    now, VRMT_INVALIDATE, pc=pc,
                    reason="exhausted" if mapping.offset >= self.vl else "operands",
                )
            decision = (
                self._new_alu_instance(entry, src_descs, scalar_value, now)
                if any_vector
                else self._decide(DecodeKind.SCALAR)
            )
            decision.vrmt_rollback = rollback
            return decision

        decision = self._new_alu_instance(entry, src_descs, scalar_value, now)
        if decision.vrmt_rollback is None:
            decision.vrmt_rollback = (pc, None, 0)
        return decision

    @staticmethod
    def _operands_match(
        mapping: VRMTEntry, src_descs: Tuple[Tuple, ...], scalar_value: Optional[Number]
    ) -> bool:
        """§3.2's operand check: the renamed sources must be the same
        registers the instance was vectorized with (vector sources compare
        by slot+generation; mixed instances also compare the captured
        scalar *value*)."""
        recorded = mapping.src_desc or ()
        if len(recorded) != len(src_descs):
            return False
        for d, r in zip(src_descs, recorded):
            if d[0] == "V":
                if r[0] != "V" or r[1] != d[1].slot or r[2] != d[1].gen:
                    return False
            elif d[0] == "S":
                if r != ("S", d[1]):
                    return False
            else:
                if r != ("imm",):
                    return False
        if mapping.scalar_value is not None and mapping.scalar_value != scalar_value:
            return False
        return True

    def _source_elems_aligned(
        self, mapping: VRMTEntry, src_descs: Tuple[Tuple, ...]
    ) -> bool:
        """Check the rename-table offsets line up with the elements this
        validation's dest element was computed from (§3.2's operand check
        includes the offset field of the rename table, Fig 6)."""
        dest_elem = mapping.offset
        start = mapping.reg.start_offset
        for desc, recorded in zip(src_descs, mapping.src_desc or ()):
            if desc[0] != "V" or recorded[0] != "V":
                continue
            base = recorded[3] if len(recorded) > 3 else 0
            if desc[2] != dest_elem - start + base:
                return False
        return True

    def _new_alu_instance(
        self,
        entry,
        src_descs: Tuple[Tuple, ...],
        scalar_value: Optional[Number],
        now: int,
    ) -> Decision:
        """Allocate a register for a vector ALU instance (``src_descs``
        holds at least one vector source; :meth:`decode_alu` checks)."""
        pc = entry.pc
        start = 0
        for d in src_descs:
            if d[0] == "V" and d[2] > start:
                start = d[2]
        prev_state = self.vrmt.table.peek(pc)
        rollback = (pc, prev_state, prev_state.offset if prev_state is not None else 0)
        reg = self.vrf.allocate(pc, is_load=False, start_offset=start, mrbb=self.gmrbb)
        if reg is None:
            self.stats.vreg_alloc_failures += 1
            self._sweep_frees(now)
            return self._decide(DecodeKind.SCALAR, vrmt_rollback=rollback)
        operands: List[Tuple] = []
        recorded_desc = []
        for d in src_descs:
            if d[0] == "V":
                operands.append((d[1], d[2] - start, 0))
                recorded_desc.append(("V", d[1].slot, d[1].gen, d[2]))
            elif d[0] == "S":
                operands.append((None, 0, d[2]))
                recorded_desc.append(("S", d[1]))
            else:  # immediate
                operands.append((None, 0, d[1]))
                recorded_desc.append(("imm",))
        pool = self._alu_pool
        if pool:
            instance = pool.pop()
            instance.reset(reg, entry.op, operands, start, now)
        else:
            instance = VectorAluInstance(reg, entry.op, operands, start, now)
        self.pending_alu.append(instance)
        self.vrmt.insert(
            pc,
            VRMTEntry(
                reg,
                offset=start + 1,
                src_desc=tuple(recorded_desc),
                scalar_value=scalar_value,
            ),
        )
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
        return self._decide(
            DecodeKind.TRIGGER,
            reg=reg,
            elem=start,
            vrmt_rollback=rollback,
        )

    # ------------------------------------------------------------------
    # The vector datapath
    # ------------------------------------------------------------------

    def tick(self, now: int) -> None:
        """Advance the vector ALU datapath by one cycle: one pass over the
        pending instances that both times and computes every element whose
        sources now have known compute times.

        Per instance, the contiguous run of ready elements starting at
        ``next_elem`` is scheduled: a live source element with no compute
        time yet ends the run (defunct / freed / abandoned sources count as
        ready — their values are garbage, but consumers of garbage are
        squashed before commit).  Each element issues at
        ``max(prev_issue + 1, pipe_start, src_ready)`` — one element per
        cycle through one pipelined FU, claimed (least-busy unit of the
        opcode's class) when the instance's first element is ready; the
        ``pipe_start`` bound is the first ``prev_issue + 1``.  Its
        ``r_time`` is the issue slot plus the FU latency, and its value is
        written to ``dest.values`` in the same step, so every scheduled
        element holds its real value.
        """
        if not self.pending_alu:
            return
        cancel_dead = self._cancel_dead
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
            if cancel_dead and not dest.defunct and self._register_is_dead(dest):
                # Future-work extension: skip computing elements nobody can
                # ever validate (complete them as garbage so freeing and
                # dependent timing still resolve).
                r_time = dest.r_time
                for j in range(k, length):
                    if r_time[j] is None:
                        r_time[j] = now
                        self.stats.fetches_cancelled += 1
                pool.append(inst)
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
                        if not (a_reg.defunct or a_reg.freed or a_reg.abandoned):
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
                        if not (b_reg.defunct or b_reg.freed or b_reg.abandoned):
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
        cancel_dead = self._cancel_dead
        out: List[Tuple[VectorRegister, int, int]] = []
        while self.pending_fetches and len(out) < limit:
            reg, elem, addr = self.pending_fetches.popleft()
            if reg.freed or reg.defunct:
                if not reg.freed and reg.r_time[elem] is None:
                    reg.r_time[elem] = 0
                continue
            if cancel_dead and self._register_is_dead(reg):
                # Future-work extension (§4.3): nothing can ever validate
                # this register again — the fetch would be pure waste; drop
                # it instead of burning a port and a line fill.
                self.stats.fetches_cancelled += 1
                if reg.r_time[elem] is None:
                    reg.r_time[elem] = 0
                continue
            out.append((reg, elem, addr))
        return out

    def _enqueue_load_fetches(self, reg: VectorRegister, upto: int) -> None:
        """Queue element fetches for ``reg`` through element ``upto``.

        With ``fetch_ahead == 0`` (the paper's eager behaviour) the whole
        register is queued at creation; with throttling, fetches trail the
        validation stream by ``fetch_ahead`` elements so registers whose
        loop ends early never fetch their dead tail."""
        upto = min(upto, reg.length - 1)
        while reg.next_fetch <= upto:
            k = reg.next_fetch
            reg.next_fetch += 1
            self.pending_fetches.append((reg, k, reg.pred_addrs[k]))

    def _register_is_dead(self, reg: VectorRegister) -> bool:
        """True when no future validation can attach to ``reg``: its loop
        has terminated, no validation is in flight, and the VRMT no longer
        maps its PC to it (so later instances of the instruction will build
        a fresh instance rather than consume these elements)."""
        if reg.mrbb == self.gmrbb or reg.u_bits:
            return False
        mapping = self.vrmt.table.peek(reg.pc)
        return mapping is None or mapping.reg is not reg

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
            ahead = self._fetch_ahead
            if ahead > 0:
                self._enqueue_load_fetches(reg, k + ahead)
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

    def set_element_freed(self, reg: VectorRegister, gen: int, elem: int, now: int) -> None:
        """The next writer of the element's logical register committed: the
        element's F flag rises (machine calls this from commit)."""
        if reg.freed or reg.gen != gen:
            return
        reg.f_bits |= 1 << elem
        # _maybe_free's first early-out, checked here to skip the call on
        # the overwhelmingly common path (a validation still in flight).
        if not reg.u_bits:
            self._maybe_free(reg, now)

    def _maybe_free(self, reg: VectorRegister, now: int) -> None:
        # Inlined reg.should_free(now, gmrbb): this runs on every commit-
        # side event and the overwhelmingly common outcome is "not yet",
        # so the §3.3 release rules are evaluated with plain loops here
        # (no generator frames) and early returns.
        if reg.freed or reg.u_bits:
            return
        if not reg.defunct:
            r_time = reg.r_time
            if reg.abandoned:
                for t in r_time:
                    if t is not None and t > now:
                        return
            else:
                for t in r_time:
                    if t is None or t > now:
                        return
            if reg.f_bits != reg.full_mask:
                # Rule 1 failed; rule 2 needs a terminated loop and every
                # validated element freed.
                if reg.mrbb == self.gmrbb:
                    return
                if reg.v_bits & ~reg.f_bits:
                    return
        used, unused, not_computed = reg.element_fates(now)
        self.stats.elements_computed_used += used
        self.stats.elements_computed_unused += unused
        self.stats.elements_not_computed += not_computed
        self.stats.registers_freed += 1
        self.vrf.free(reg)

    def _sweep_frees(self, now: int) -> None:
        throttled = self._fetch_ahead > 0
        for reg in self.vrf.live_registers():
            if (
                throttled
                and reg.is_load
                and not reg.abandoned
                and reg.next_fetch < reg.length
                and self._register_is_dead(reg)
            ):
                # Throttled-fetch extension: the register's tail was never
                # requested and never will be — count the saved fetches and
                # stop the unscheduled elements from pinning the register.
                self.stats.fetches_cancelled += reg.length - reg.next_fetch
                reg.abandoned = True
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
