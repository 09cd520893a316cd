"""Vector register file: element flags, the two freeing rules, generations.

The §3.3 release rules live in one place, the engine's ``_maybe_free``;
the rule tests drive it on a register of the engine's own file.
"""

from repro.core import VectorizationEngine, VectorRegisterFile
from repro.pipeline.config import make_config
from repro.pipeline.stats import SimStats


def fresh(vl=4, regs=8):
    vrf = VectorRegisterFile(num_registers=regs, vector_length=vl)
    reg = vrf.allocate(pc=10, is_load=True, start_offset=0, mrbb=100)
    return vrf, reg


def fresh_engine(start_offset=0, mrbb=100):
    """An engine plus one register allocated in its file inside loop
    ``mrbb``."""
    engine = VectorizationEngine(make_config(4, 1, "V"), SimStats())
    reg = engine.vrf.allocate(pc=10, is_load=False, start_offset=start_offset, mrbb=mrbb)
    return engine, reg


def frees(engine, reg, now=10, gmrbb=100):
    """Evaluate the release rules at ``now`` with GMRBB ``gmrbb``."""
    engine.gmrbb = gmrbb
    engine._maybe_free(reg, now)
    return reg.freed


def complete_all(reg, now=5):
    for k in range(reg.length):
        reg.r_time[k] = now


def test_allocation_and_exhaustion():
    vrf = VectorRegisterFile(num_registers=2, vector_length=4)
    a = vrf.allocate(1, True, 0, -1)
    b = vrf.allocate(2, True, 0, -1)
    assert a is not None and b is not None
    assert vrf.allocate(3, True, 0, -1) is None  # §3.3: stay scalar


def test_generations_bump_on_reuse():
    vrf = VectorRegisterFile(num_registers=1, vector_length=4)
    a = vrf.allocate(1, True, 0, -1)
    vrf.free(a)
    b = vrf.allocate(2, True, 0, -1)
    assert b.slot == a.slot
    assert b.gen == a.gen + 1


def test_free_is_idempotent():
    vrf, reg = fresh()
    vrf.free(reg)
    vrf.free(reg)
    # The slot went back to the pool once: 8 registers, not 9.
    allocated = [vrf.allocate(pc, True, 0, -1) for pc in range(9)]
    assert sum(r is not None for r in allocated) == 8


def test_load_address_range():
    vrf, reg = fresh()
    reg.set_load_addresses(0x1000, 8)
    vrf.index_load(reg)
    assert reg.pred_addrs == [0x1000, 0x1008, 0x1010, 0x1018]
    assert vrf.coherence_candidates(0x1008) == [reg]
    assert vrf.coherence_candidates(0x0FF8) == []
    assert vrf.coherence_candidates(0x1020) == []


def test_negative_stride_range():
    vrf, reg = fresh()
    reg.set_load_addresses(0x1000, -8)
    vrf.index_load(reg)
    assert reg.first_addr == 0x1000 - 24
    assert vrf.coherence_candidates(0x1000 - 16) == [reg]


def test_elem_done_needs_time_passed():
    # An element is R at cycle t once its r_time <= t; unscheduled (None)
    # is never R.
    engine, reg = fresh_engine()
    complete_all(reg)
    reg.f_bits = reg.full_mask
    reg.r_time[0] = 7
    reg.r_time[1] = None
    assert not frees(engine, reg, now=7)
    reg.r_time[1] = 5
    assert not frees(engine, reg, now=6)
    assert frees(engine, reg, now=7)


def test_rule1_all_computed_and_freed():
    """§3.3 rule 1: every element has R and F set."""
    engine, reg = fresh_engine()
    complete_all(reg)
    assert not frees(engine, reg, gmrbb=100)
    reg.f_bits = reg.full_mask
    assert frees(engine, reg, gmrbb=100)  # even with MRBB == GMRBB
    assert engine.stats.registers_freed == 1


def test_rule2_needs_loop_exit():
    """§3.3 rule 2: validated elements freed, all R, no U, MRBB != GMRBB."""
    engine, reg = fresh_engine()
    complete_all(reg)
    reg.v_bits |= 1 << 0
    reg.f_bits |= 1 << 0  # the only validated element is freed
    assert not frees(engine, reg, gmrbb=100)  # same loop -> keep
    assert frees(engine, reg, gmrbb=200)  # loop terminated -> release


def test_rule2_blocked_by_in_flight_validation():
    engine, reg = fresh_engine()
    complete_all(reg)
    reg.u_bits |= 1 << 2
    assert not frees(engine, reg, gmrbb=200)
    reg.u_bits &= ~(1 << 2)
    assert frees(engine, reg, gmrbb=200)


def test_rule2_blocked_by_uncomputed_element():
    engine, reg = fresh_engine()
    complete_all(reg)
    reg.r_time[3] = None
    assert not frees(engine, reg, gmrbb=200)


def test_rule2_blocked_by_unfreed_validated_element():
    engine, reg = fresh_engine()
    complete_all(reg)
    reg.v_bits |= 1 << 1  # validated but F not yet set
    assert not frees(engine, reg, gmrbb=200)


def test_defunct_frees_once_validations_drain():
    engine, reg = fresh_engine()
    reg.defunct = True
    reg.u_bits |= 1 << 0
    assert not frees(engine, reg, gmrbb=100)
    reg.u_bits &= ~(1 << 0)
    assert frees(engine, reg, gmrbb=100)  # nothing computed, still released


def test_flush_rollback_releases_a_drained_register():
    # Squashing the last in-flight validation clears its U bit and
    # re-evaluates the release rules (on_flush_entry).
    from types import SimpleNamespace

    engine, reg = fresh_engine()
    complete_all(reg)
    reg.f_bits = reg.full_mask
    reg.u_bits |= 1 << 1
    assert not frees(engine, reg)
    fl = SimpleNamespace(vrmt_rollback=None, vreg=reg, velem=1)
    engine.on_flush_entry(fl, 10)
    assert reg.freed and not reg.u_bits


def test_start_offset_elements_vacuously_complete():
    engine, reg = fresh_engine(start_offset=2, mrbb=-1)
    assert reg.r_time[:2] == [0, 0] and (reg.f_bits & 1)
    reg.r_time[2] = reg.r_time[3] = 1
    assert frees(engine, reg, now=5, gmrbb=99)  # rule 2 with nothing validated


def test_element_fates_accounting():
    vrf, reg = fresh()
    reg.r_time[0] = reg.r_time[1] = 3
    reg.v_bits |= 1 << 0
    used, unused, not_computed = reg.element_fates(10)
    assert (used, unused, not_computed) == (1, 1, 2)


def test_element_fates_counts_prestart_as_not_computed():
    vrf = VectorRegisterFile(num_registers=4, vector_length=4)
    reg = vrf.allocate(1, False, start_offset=2, mrbb=-1)
    reg.r_time[2] = reg.r_time[3] = 1
    reg.v_bits |= 1 << 2
    used, unused, not_computed = reg.element_fates(10)
    assert (used, unused, not_computed) == (1, 1, 2)


def test_live_registers_listing():
    vrf = VectorRegisterFile(num_registers=4, vector_length=4)
    a = vrf.allocate(1, True, 0, -1)
    b = vrf.allocate(2, True, 0, -1)
    vrf.free(a)
    assert vrf.live_registers() == [b]


def test_storage_bytes_matches_paper():
    """§4.1: 4 KB (4 elements x 8 bytes x 128 registers)."""
    assert VectorRegisterFile().storage_bytes == 4096
