"""Vector Register Map Table semantics."""

from types import SimpleNamespace

from repro.core import VectorizationEngine, VectorRegisterFile, VRMT, VRMTEntry
from repro.pipeline.config import make_config
from repro.pipeline.stats import SimStats


def make_reg(vrf=None, pc=1):
    vrf = vrf or VectorRegisterFile(num_registers=4, vector_length=4)
    return vrf, vrf.allocate(pc, True, 0, -1)


def test_insert_lookup_offset():
    vrf, reg = make_reg()
    table = VRMT()
    table.insert(10, VRMTEntry(reg, offset=1))
    entry = table.lookup(10)
    assert entry.reg is reg and entry.offset == 1


def test_lookup_filters_freed_registers():
    vrf, reg = make_reg()
    table = VRMT()
    table.insert(10, VRMTEntry(reg, offset=1))
    vrf.free(reg)
    assert table.lookup(10) is None
    # the stale entry is dropped eagerly
    assert table.table.peek(10) is None


def test_lookup_filters_defunct_registers():
    vrf, reg = make_reg()
    table = VRMT()
    table.insert(10, VRMTEntry(reg, offset=1))
    reg.defunct = True
    assert table.lookup(10) is None


def test_invalidate():
    vrf, reg = make_reg()
    table = VRMT()
    table.insert(10, VRMTEntry(reg, offset=0))
    assert table.invalidate(10).reg is reg
    assert table.lookup(10) is None


def squash(engine, rollback):
    """Roll back one squashed instruction's decode-time VRMT effect."""
    engine.on_flush_entry(SimpleNamespace(vrmt_rollback=rollback, vreg=None), now=0)


def test_snapshot_restore_rolls_back_offset():
    engine = VectorizationEngine(make_config(4, 1, "V"), SimStats())
    _, reg = make_reg(engine.vrf)
    entry = VRMTEntry(reg, offset=1)
    engine.vrmt.insert(10, entry)
    engine.vrmt.lookup(10).offset = 3  # two validations decoded
    engine.vrmt.invalidate(10)  # ... then the mapping was retired
    squash(engine, (10, entry, 1))
    assert engine.vrmt.lookup(10) is entry
    assert entry.offset == 1


def test_restore_none_invalidates():
    engine = VectorizationEngine(make_config(4, 1, "V"), SimStats())
    _, reg = make_reg(engine.vrf)
    engine.vrmt.insert(10, VRMTEntry(reg, offset=1))
    squash(engine, (10, None, 0))
    assert engine.vrmt.lookup(10) is None


def test_eviction_counts_orphans():
    vrf = VectorRegisterFile(num_registers=8, vector_length=4)
    table = VRMT(ways=1, sets=1)
    _, a = VectorRegisterFile(8, 4), vrf.allocate(1, True, 0, -1)
    b = vrf.allocate(2, True, 0, -1)
    table.insert(1, VRMTEntry(a, offset=0))
    table.insert(2, VRMTEntry(b, offset=0))  # evicts pc 1
    assert table.orphaned_registers == 1


def test_source_tokens_and_scalar_value_fields():
    vrf, reg = make_reg()
    table = VRMT()
    entry = VRMTEntry(reg, offset=0, src1=(reg, 1), scalar_value=2.5)
    table.reinstall(10, entry)
    assert table.orphaned_registers == 0
    got = table.lookup(10)
    assert got is entry
    assert got.src1 == (reg, 1) and got.src2 is None
    assert got.scalar_value == 2.5


def test_storage_bytes_matches_paper():
    """§4.1: 4608 bytes (4 ways x 64 sets x 18 bytes)."""
    assert VRMT().storage_bytes == 4608
