"""White-box coverage of the engine's decode decision paths.

Decode returns None for a plain scalar, else the tuple ``(kind, reg,
elem, pred_addr, counts_as_validation, vrmt_rollback)``.  ALU decode
takes the rename tokens of rs1 / rs2: a ``(reg, elem)`` tuple for a
vector-mapped source, None for a scalar one (its value is the entry's
``s1`` / ``s2``).
"""

from repro.core.engine import SCALAR, TRIGGER, VALIDATION, VectorizationEngine
from repro.pipeline.config import make_config
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


def make_engine(**vector_overrides):
    config = make_config(4, 1, "V")
    for key, value in vector_overrides.items():
        setattr(config.vector, key, value)
    return VectorizationEngine(config, SimStats())


def drive_load(engine, pc, addrs, start_seq=0):
    decisions = []
    for i, addr in enumerate(addrs):
        entry = FakeLoadEntry(start_seq + i, pc, addr)
        decisions.append(engine.decode_load(entry, now=i, first_time=True))
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
    assert engine.decode_alu(entry, None, None, now=0) is None


def test_alu_decode_vectorizes_and_validates():
    engine = make_engine()
    decisions = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    reg = decisions[3][1]
    entry = FakeAluEntry(4, 50, "ADD", s2=7)
    first = engine.decode_alu(entry, (reg, 0), None, now=4)
    assert first[0] == TRIGGER
    second = engine.decode_alu(FakeAluEntry(5, 50, "ADD", s2=7), (reg, 1), None, now=5)
    assert second[0] == VALIDATION
    assert second[2] == 1


def test_alu_scalar_value_change_forces_new_instance():
    engine = make_engine()
    decisions = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    reg = decisions[3][1]
    engine.decode_alu(FakeAluEntry(4, 50, "ADD", s2=7), (reg, 0), None, now=4)
    # Same registers, different scalar value -> operand check must fail.
    redo = engine.decode_alu(FakeAluEntry(5, 50, "ADD", s2=99), (reg, 1), None, now=5)
    assert redo[0] == TRIGGER
    assert engine.stats.vector_alu_instances == 2


def test_alu_source_register_change_forces_new_instance():
    engine = make_engine()
    d1 = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    d2 = drive_load(engine, pc=20, addrs=[0x4000 + 8 * i for i in range(4)], start_seq=10)
    reg1, reg2 = d1[3][1], d2[3][1]
    engine.decode_alu(FakeAluEntry(20, 50, "ADD", s2=7), (reg1, 0), None, now=20)
    redo = engine.decode_alu(FakeAluEntry(21, 50, "ADD", s2=7), (reg2, 0), None, now=21)
    assert redo[0] == TRIGGER


def test_alu_misaligned_source_offset_forces_new_instance():
    engine = make_engine()
    decisions = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    reg = decisions[3][1]
    engine.decode_alu(FakeAluEntry(4, 50, "ADD", s2=7), (reg, 0), None, now=4)
    # The source element skips from 0 to 2 (control divergence): the
    # rename-offset part of the §3.2 check must reject the validation.
    redo = engine.decode_alu(FakeAluEntry(5, 50, "ADD", s2=7), (reg, 2), None, now=5)
    assert redo[0] == TRIGGER


def test_alu_two_vector_sources_with_different_offsets():
    engine = make_engine()
    d1 = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])
    d2 = drive_load(engine, pc=20, addrs=[0x4000 + 8 * i for i in range(6)], start_seq=10)
    reg1 = d1[3][1]
    reg2 = d2[3][1]
    # reg1 at element 0, reg2 already at element 2 -> start offset 2 (§3.4).
    decision = engine.decode_alu(FakeAluEntry(20, 60, "SUB"), (reg1, 0), (reg2, 2), now=20)
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
