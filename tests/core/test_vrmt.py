"""Vector Register Map Table semantics.

The VRMT maps a PC straight to a vector register: the row's fields
(``offset``, ``src1``, ``src2``, ``scalar_value``) are the register's own.
"""

from types import SimpleNamespace

from repro.core import VectorizationEngine, VectorRegisterFile, VRMT
from repro.core.engine import VALIDATION
from repro.pipeline.config import make_config
from repro.pipeline.stats import SimStats

from .test_engine_decode_paths import FakeLoadEntry, decode_load, drive_load


def make_reg(vrf=None, pc=1):
    vrf = vrf or VectorRegisterFile(num_registers=4, vector_length=4)
    return vrf, vrf.allocate(pc, True, 0, -1)


def test_insert_lookup_offset():
    vrf, reg = make_reg()
    table = VRMT()
    table.insert(10, reg)
    got = table.lookup(10)
    assert got is reg and got.offset == 1  # the trigger validates element 0


def test_lookup_filters_freed_registers():
    vrf, reg = make_reg()
    table = VRMT()
    table.insert(10, reg)
    vrf.free(reg)
    assert table.lookup(10) is None
    # the stale entry is dropped eagerly
    assert table.table.peek(10) is None


def test_lookup_filters_defunct_registers():
    vrf, reg = make_reg()
    table = VRMT()
    table.insert(10, reg)
    reg.defunct = True
    assert table.lookup(10) is None


def test_invalidate():
    vrf, reg = make_reg()
    table = VRMT()
    table.insert(10, reg)
    assert table.invalidate(10) is reg
    assert table.lookup(10) is None


def squash(engine, rollback):
    """Roll back one squashed instruction's decode-time VRMT effect."""
    engine.on_flush_entry(SimpleNamespace(vrmt_rollback=rollback, vreg=None), now=0)


def test_snapshot_restore_rolls_back_offset():
    engine = VectorizationEngine(make_config(4, 1, "V"), SimStats())
    _, reg = make_reg(engine.vrf)
    engine.vrmt.insert(10, reg)
    engine.vrmt.lookup(10).offset = 3  # two validations decoded
    engine.vrmt.invalidate(10)  # ... then the mapping was retired
    squash(engine, (10, reg, 1))
    assert engine.vrmt.lookup(10) is reg
    assert reg.offset == 1


def test_squashed_validations_rewind_the_register_offset():
    """Decoded validations advance the mapped register's own ``offset``;
    flushing them youngest-first restores it, and a validation decoded
    afterwards checks the element the first squashed one did."""
    engine = VectorizationEngine(make_config(4, 1, "V"), SimStats())
    reg = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])[3][1]
    assert reg.offset == 1
    flights = []
    for seq, elem in ((4, 1), (5, 2)):
        kind, fl = decode_load(engine, FakeLoadEntry(seq, 10, 0x1018 + 8 * elem), now=seq)
        assert kind == VALIDATION and fl.velem == elem and fl.vrmt_rollback == (10, reg, elem)
        flights.append(fl)
    assert reg.offset == 3 and reg.u_bits == 0b111
    for fl in reversed(flights):
        engine.on_flush_entry(fl, now=6)
    assert engine.vrmt.table.peek(10) is reg
    assert reg.offset == 1 and reg.u_bits == 0b001
    kind, fl = decode_load(engine, FakeLoadEntry(4, 10, 0x1020), now=7, first_time=False)
    assert kind == VALIDATION and fl.vreg is reg and fl.velem == 1


def test_restore_none_invalidates():
    engine = VectorizationEngine(make_config(4, 1, "V"), SimStats())
    _, reg = make_reg(engine.vrf)
    engine.vrmt.insert(10, reg)
    squash(engine, (10, None, 0))
    assert engine.vrmt.lookup(10) is None


def test_eviction_counts_orphans():
    vrf = VectorRegisterFile(num_registers=8, vector_length=4)
    table = VRMT(ways=1, sets=1)
    a = vrf.allocate(1, True, 0, -1)
    b = vrf.allocate(2, True, 0, -1)
    table.insert(1, a)
    table.insert(2, b)  # evicts pc 1
    assert table.orphaned_registers == 1


def test_source_tokens_and_scalar_value_fields():
    vrf = VectorRegisterFile(num_registers=4, vector_length=4)
    src = vrf.allocate(1, True, 0, -1)
    reg = vrf.allocate(2, False, 1, -1)
    assert reg.offset == 2  # a start-offset instance validates start + 1 next
    assert reg.src1 is None and reg.src2 is None and reg.scalar_value is None
    reg.src1 = (src, 1)
    reg.scalar_value = 2.5
    table = VRMT()
    table.reinstall(10, reg)
    assert table.orphaned_registers == 0
    got = table.lookup(10)
    assert got is reg
    assert got.src1 == (src, 1) and got.src2 is None
    assert got.scalar_value == 2.5


def test_storage_bytes_matches_paper():
    """§4.1: 4608 bytes (4 ways x 64 sets x 18 bytes)."""
    assert VRMT().storage_bytes == 4608
