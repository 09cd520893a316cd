"""White-box coverage of the engine's decode decision paths.

Decode returns None for a plain scalar, else the outcome's kind, and
writes the outcome into the window record it is handed; the helpers
below read it back as the tuple ``(kind, reg, elem, mismatch,
counts_as_validation, vrmt_rollback)``.  ALU decode takes the rename
tokens of rs1 / rs2: a ``(reg, elem)`` tuple for a vector-mapped source,
None for a scalar one (its value is the entry's ``s1`` / ``s2``).
"""

from types import SimpleNamespace

from repro.core.engine import SCALAR, STALL, TRIGGER, VALIDATION, VectorizationEngine
from repro.pipeline.config import make_config
from repro.pipeline.machine import VecInFlight
from repro.pipeline.stats import SimStats


class FakeLoadEntry:
    """Minimal stand-in for a TraceEntry as decode_load sees it."""

    def __init__(self, seq, pc, addr, op=None):
        from repro.isa.opcodes import Opcode

        self.seq = seq
        self.pc = pc
        self.addr = addr
        self.op = op or Opcode.LD
        self.rd = 3
        self.rs1 = 1
        self.rs2 = -1
        self.imm = 0
        self.value = 0


class FakeAluEntry:
    """``rs2=-1`` makes an immediate form whose immediate is ``imm``."""

    def __init__(self, seq, pc, op, s1=0, s2=0, rs2=3, imm=0):
        from repro.isa import Opcode

        self.seq = seq
        self.pc = pc
        self.op = getattr(Opcode, op)
        self.rd = 2
        self.rs1 = 2
        self.rs2 = rs2
        self.imm = imm
        self.s1 = s1
        self.s2 = s2
        self.value = 0


def kind(decoded):
    return SCALAR if decoded is None else decoded[0]


def decided(vkind, fl):
    """A decode outcome as ``(kind, reg, elem, mismatch,
    counts_as_validation, vrmt_rollback)``, or None for a plain scalar."""
    if vkind is None:
        return None
    if vkind == SCALAR:
        return (SCALAR, None, -1, False, False, fl.vrmt_rollback)
    return (vkind, fl.vreg, fl.velem, fl.mismatch, fl.counts_as_validation,
            fl.vrmt_rollback)


def decode_load(engine, entry, now, first_time=True):
    """``(kind, record)`` of one load decode."""
    fl = VecInFlight.__new__(VecInFlight)
    return engine.decode_load(entry, now, first_time, fl), fl


def decode_alu(engine, entry, t1, t2, now):
    """One arithmetic decode, as :func:`decided` reads it (STALL as is)."""
    fl = VecInFlight.__new__(VecInFlight)
    vkind = engine.decode_alu(entry, t1, t2, now, fl)
    return STALL if vkind == STALL else decided(vkind, fl)


def make_engine(**vector_overrides):
    config = make_config(4, 1, "V")
    for key, value in vector_overrides.items():
        setattr(config.vector, key, value)
    return VectorizationEngine(config, SimStats())


def drive_load(engine, pc, addrs, start_seq=0):
    decisions = []
    for i, addr in enumerate(addrs):
        entry = FakeLoadEntry(start_seq + i, pc, addr)
        decisions.append(decided(*decode_load(engine, entry, now=i)))
    return decisions


def test_load_decision_sequence():
    engine = make_engine()
    decisions = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(9)])
    kinds = [kind(d) for d in decisions]
    assert decisions[:3] == [None] * 3  # training: no engine state touched
    assert kinds[:4] == [SCALAR, SCALAR, SCALAR, TRIGGER]
    # Instances 5..7 validate elements 1..3; instance 8 chains.
    assert kinds[4:7] == [VALIDATION] * 3
    assert decisions[4][2] == 1 and decisions[6][2] == 3
    assert decisions[7][0] == TRIGGER
    assert decisions[7][4]  # chained creations validate elem 0


def test_trigger_prefetches_whole_register_when_eager():
    engine = make_engine()
    drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    assert len(engine.pending_fetches) == 4


def test_pool_exhaustion_returns_scalar():
    engine = make_engine(num_registers=1)
    drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    # Second strided load cannot allocate.
    decisions = drive_load(engine, pc=20, addrs=[0x2000 + 8 * i for i in range(4)], start_seq=10)
    assert kind(decisions[3]) == SCALAR
    assert engine.stats.vreg_alloc_failures >= 1


def test_alu_decode_requires_vector_source():
    engine = make_engine()
    entry = FakeAluEntry(0, 50, "ADD", s1=5, s2=7)
    assert decode_alu(engine, entry, None, None, now=0) is None


def test_alu_decode_vectorizes_and_validates():
    engine = make_engine()
    decisions = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    reg = decisions[3][1]
    entry = FakeAluEntry(4, 50, "ADD", s2=7)
    first = decode_alu(engine, entry, (reg, 0), None, now=4)
    assert first[0] == TRIGGER
    second = decode_alu(engine, FakeAluEntry(5, 50, "ADD", s2=7), (reg, 1), None, now=5)
    assert second[0] == VALIDATION
    assert second[2] == 1


def test_alu_scalar_value_change_forces_new_instance():
    engine = make_engine()
    decisions = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    reg = decisions[3][1]
    decode_alu(engine, FakeAluEntry(4, 50, "ADD", s2=7), (reg, 0), None, now=4)
    # Same registers, different scalar value -> operand check must fail.
    redo = decode_alu(engine, FakeAluEntry(5, 50, "ADD", s2=99), (reg, 1), None, now=5)
    assert redo[0] == TRIGGER
    assert engine.stats.vector_alu_instances == 2


def test_alu_source_register_change_forces_new_instance():
    engine = make_engine()
    d1 = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    d2 = drive_load(engine, pc=20, addrs=[0x4000 + 8 * i for i in range(4)], start_seq=10)
    reg1, reg2 = d1[3][1], d2[3][1]
    decode_alu(engine, FakeAluEntry(20, 50, "ADD", s2=7), (reg1, 0), None, now=20)
    redo = decode_alu(engine, FakeAluEntry(21, 50, "ADD", s2=7), (reg2, 0), None, now=21)
    assert redo[0] == TRIGGER


def test_alu_misaligned_source_offset_forces_new_instance():
    engine = make_engine()
    decisions = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    reg = decisions[3][1]
    decode_alu(engine, FakeAluEntry(4, 50, "ADD", s2=7), (reg, 0), None, now=4)
    # The source element skips from 0 to 2 (control divergence): the
    # rename-offset part of the §3.2 check must reject the validation.
    redo = decode_alu(engine, FakeAluEntry(5, 50, "ADD", s2=7), (reg, 2), None, now=5)
    assert redo[0] == TRIGGER


def test_alu_two_vector_sources_with_different_offsets():
    engine = make_engine()
    d1 = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    d2 = drive_load(engine, pc=20, addrs=[0x4000 + 8 * i for i in range(6)], start_seq=10)
    reg1 = d1[3][1]
    reg2 = d2[3][1]
    # reg1 at element 0, reg2 already at element 2 -> start offset 2 (§3.4).
    decision = decode_alu(engine, FakeAluEntry(20, 60, "SUB"), (reg1, 0), (reg2, 2), now=20)
    assert decision[0] == TRIGGER
    assert decision[2] == 2
    assert engine.stats.offset_instances == 1


def test_store_conflict_marks_only_speculative_registers():
    engine = make_engine()
    decisions = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    reg = decisions[3][1]
    # The register covers the trigger address (0x1018) plus three strides.
    # Element 1 (0x1020) is still unvalidated -> a store there conflicts.
    assert engine.on_store_commit(0x1020, now=10)
    assert reg.defunct
    assert engine.stats.store_conflicts == 1


def test_store_outside_ranges_is_clean():
    engine = make_engine()
    drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    assert not engine.on_store_commit(0x9000, now=10)


def test_vrmt_pressure_orphans_registers_without_crashing():
    engine = make_engine(vrmt_sets=1, vrmt_ways=1)
    drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    drive_load(engine, pc=20, addrs=[0x4000 + 8 * i for i in range(4)], start_seq=10)
    # pc 10's mapping was evicted by pc 20's.
    assert engine.vrmt.lookup(10) is None
    assert engine.vrmt.lookup(20) is not None
    assert engine.vrmt.orphaned_registers >= 1


def _mixed_instance(engine, pc=50):
    """A mixed vector/scalar ADD at ``pc`` (vector rs1, scalar rs2 = 7)
    and its source load register."""
    src = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])[3][1]
    first = decode_alu(engine, FakeAluEntry(4, pc, "ADD", s2=7), (src, 0), None, now=4)
    assert first[0] == TRIGGER and first[1].scalar_value == 7
    return src, first[1]


def test_stalled_mixed_operand_decode_leaves_a_stale_mapping_in_place():
    """§3.2's scalar-operand stall is decided on a peek: a stalled decode
    neither drops a stale mapping nor refreshes the set's LRU order."""
    engine = make_engine()
    src, dest = _mixed_instance(engine, pc=50)
    # pc 114 shares pc 50's VRMT set (64 sets) and is now its MRU row.
    drive_load(engine, pc=114, addrs=[0x6000 + 8 * i for i in range(4)], start_seq=20)
    bucket = engine.vrmt.table._sets[50]
    assert [pc for pc, _ in bucket] == [114, 50]
    dest.defunct = True  # the register died under its mapping
    producer = SimpleNamespace(done_at=None)  # rs2's producer has not issued
    entry = FakeAluEntry(5, 50, "ADD", s2=7)
    assert decode_alu(engine, entry, (src, 1), producer, now=5) == STALL
    producer.done_at = 9  # issued, but its value is not ready until 9
    assert decode_alu(engine, entry, (src, 1), producer, now=5) == STALL
    assert [pc for pc, _ in bucket] == [114, 50]
    assert engine.vrmt.table.peek(50) is dest
    # Once the value is ready the decode drops the stale mapping and
    # starts a new instance.
    redo = decode_alu(engine, entry, (src, 1), producer, now=9)
    assert redo[0] == TRIGGER and redo[1] is not dest
    assert engine.vrmt.table.peek(50) is redo[1]


def test_mixed_operand_stall_only_when_blocking_and_only_on_scalar_sources():
    engine = make_engine()
    src, dest = _mixed_instance(engine)
    producer = SimpleNamespace(done_at=None)
    # A vector-mapped source never stalls: only scalar producers are read.
    ok = decode_alu(engine, FakeAluEntry(5, 50, "ADD", s2=7), (src, 1), None, now=5)
    assert ok[0] == VALIDATION and ok[1] is dest
    # Fig 7's ideal machine does not block on the scalar operand.
    engine = make_engine(block_on_scalar_operand=False)
    src, dest = _mixed_instance(engine)
    redo = decode_alu(engine, FakeAluEntry(5, 50, "ADD", s2=7), (src, 1), producer, now=5)
    assert redo[0] == VALIDATION and redo[1] is dest
