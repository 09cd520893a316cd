"""The vector ALU datapath computes element values when it schedules them.

``VectorizationEngine.tick`` times and evaluates each ready element in one
step, so a scheduled element's value is always in ``dest.values`` and the
commit-time invariant check reads the real value.
"""

from types import SimpleNamespace

import pytest

from repro.core.engine import TRIGGER, MisspeculationError
from repro.core.vector_regfile import wake_instances
from repro.functional.semantics import apply_alu
from repro.isa.opcodes import FU_LATENCY, Opcode, fu_class_of
from repro.memory import DataPorts

from .test_engine_decode_paths import FakeAluEntry, decode_alu, drive_load, make_engine


def _load_register(engine, pc, base, values, fetched):
    """A vector load register whose elements ``fetched`` hold ``values``
    (what the memory stage writes when it serves an element fetch)."""
    reg = drive_load(engine, pc=pc, addrs=[base + 8 * i for i in range(4)])[3][1]
    for k in fetched:
        reg.values[k] = values[k]
        reg.r_time[k] = 10 + k
    return reg


def _assert_scheduled_values(dest, op, a, b, start):
    """Every scheduled element equals apply_alu of its source elements."""
    for k in range(start, dest.length):
        if dest.r_time[k] is not None:
            assert dest.values[k] == apply_alu(op, a(k), b(k)), f"element {k}"


def test_tick_writes_each_scheduled_element_value():
    engine = make_engine()
    x = _load_register(engine, 10, 0x1000, [2**62, -7, 11, 3], fetched=(0, 1, 2))
    y = _load_register(engine, 20, 0x4000, [5, 6, -9, 4], fetched=(0, 1, 2, 3))
    # dest[k] = x[k - 2] * y[k]: x is two elements behind (start offset 2).
    mul = decode_alu(engine, FakeAluEntry(30, 60, "MUL"), (x, 0), (y, 2), now=30)
    assert mul[0] == TRIGGER and mul[2] == 2
    prod = mul[1]
    # dest[k] = prod[k] + 9 (an ALU instance fed by another ALU instance).
    addi = FakeAluEntry(31, 70, "ADDI", rs2=-1, imm=9)
    total = decode_alu(engine, addi, (prod, 2), None, now=31)[1]
    engine.tick(40)
    assert prod.r_time[2] is not None and prod.r_time[3] is not None
    _assert_scheduled_values(prod, Opcode.MUL, lambda k: x.values[k - 2], lambda k: y.values[k], 2)
    _assert_scheduled_values(total, Opcode.ADDI, lambda k: prod.values[k], lambda k: 9, 2)
    assert total.r_time[3] is not None  # both instances finished in one tick
    assert not engine.woken_alu


def test_tick_stops_at_an_unfetched_source_and_resumes():
    engine = make_engine()
    loaded = [1.5, -2.25, 8.0, 0.5]
    x = _load_register(engine, 10, 0x1000, loaded, fetched=(0, 1))
    sub = decode_alu(engine, FakeAluEntry(5, 60, "FSUB", s2=0.75), (x, 0), None, now=5)
    dest = sub[1]
    latency = FU_LATENCY[fu_class_of(Opcode.FSUB)]
    engine.tick(20)
    # The FU opens at cycle 20; one element per cycle through the pipe.
    assert dest.r_time == [20 + latency, 21 + latency, None, None]
    assert dest.values[:2] == [1.5 - 0.75, -2.25 - 0.75]
    # Waiting on element 2: asleep on x, off the datapath's pass.
    [inst] = x.alu_sleepers
    assert inst.dest is dest and not engine.woken_alu
    engine.tick(22)
    assert dest.r_time[2:] == [None, None]
    for k in (2, 3):
        x.values[k] = loaded[k]
        x.r_time[k] = 25
    wake_instances(x, engine.woken_alu)  # what every element-time writer does
    assert engine.woken_alu == [(inst.order, inst)] and x.alu_sleepers is None
    engine.tick(26)
    # Never before the sources (ready at 25), never two in one cycle.
    assert dest.r_time[2:] == [25 + latency, 26 + latency]
    assert dest.values == [1.5 - 0.75, -2.25 - 0.75, 8.0 - 0.75, 0.5 - 0.75]
    assert not engine.woken_alu


def test_a_source_leaving_the_live_set_wakes_its_sleepers():
    """Freed (like defunct) source elements count as ready:
    the transition wakes the instances asleep on the register, and their
    next pass schedules the rest of the register."""
    engine = make_engine()
    x = _load_register(engine, 10, 0x1000, [1, 2, 3, 4], fetched=(0,))
    dest = decode_alu(engine, FakeAluEntry(5, 60, "ADD", s2=1), (x, 0), None, now=5)[1]
    engine.tick(20)
    [inst] = x.alu_sleepers
    assert not engine.woken_alu and dest.r_time[1:] == [None, None, None]
    engine.vrf.free(x)
    assert engine.woken_alu == [(inst.order, inst)]
    engine.tick(21)
    assert None not in dest.r_time
    assert not engine.woken_alu


def test_corrupted_element_fails_the_commit_time_check():
    engine = make_engine()
    x = _load_register(engine, 10, 0x1000, [4, 5, 6, 7], fetched=(0, 1, 2, 3))
    decision = decode_alu(engine, FakeAluEntry(5, 60, "ADD", s2=10), (x, 0), None, now=5)
    dest = decision[1]
    engine.tick(20)
    ports = DataPorts(1, wide=True)

    def commit(k):
        entry = FakeAluEntry(5 + k, 60, "ADD")
        entry.value = apply_alu(entry.op, x.values[k], 10)
        fl = SimpleNamespace(vreg=dest, velem=k, entry=entry, counts_as_validation=True)
        engine.on_validation_commit(fl, 30, ports)

    commit(0)  # the eagerly computed value matches: no error
    dest.values[1] += 1
    with pytest.raises(MisspeculationError, match="elem 1"):
        commit(1)

