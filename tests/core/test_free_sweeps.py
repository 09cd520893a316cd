"""Allocation-failure sweeps check only the free candidates.

Every flag §3.3's release rules read changes at an event that checks its
register on the spot (or, for a store-conflict defunct and a GMRBB
change, queues or checks it), so between GMRBB changes a sweep can only
free a register that at its last check passed every flag test and failed
on time: a candidate.  These tests pin that a candidate sweep frees what
a scan of every live register would, at the same cycle.
"""

import dataclasses

import pytest

from repro.core import VectorizationEngine
from repro.pipeline.config import make_config
from repro.pipeline.machine import Machine
from repro.pipeline.stats import SimStats
from repro.workloads.spec95 import cached_trace

from .test_engine_decode_paths import FakeLoadEntry, decode_load, drive_load


def full_scan(engine, now):
    """A sweep over every live register (slot order)."""
    for reg in engine.vrf.live_registers():
        engine._maybe_free(reg, now)


def starved_engine(full=False):
    """An engine whose two registers are both allocated, in loop 100."""
    config = make_config(4, 1, "V")
    config.vector.num_registers = 2
    engine = VectorizationEngine(config, SimStats())
    if full:
        engine._sweep_frees = lambda now: full_scan(engine, now)
    engine.gmrbb = 100
    a = drive_load(engine, pc=10, addrs=[0x1000 + 8 * i for i in range(4)])[3][1]
    b = drive_load(engine, pc=20, addrs=[0x4000 + 8 * i for i in range(4)], start_seq=10)[3][1]
    return engine, a, b


def fail_allocation(engine, now, seq):
    """A fresh strided load at ``now`` that finds the pool empty."""
    pc = 40 + seq
    for i in range(4):
        decode_load(engine, FakeLoadEntry(seq + i, pc, 0x8000 + 8 * i), now=now)


def test_repeated_sweep_then_a_register_freed_once_time_passes():
    """Two allocation failures in one cycle sweep nothing free; the
    register whose last element completes at cycle 9 is freed by the
    first sweep at cycle 9, as by a full scan."""
    freed_at = {}
    for full in (False, True):
        engine, a, b = starved_engine(full)
        # a: every element architecturally dead (rule 1), the trigger's
        # validation committed, element 3 computed only at cycle 9.
        # Clearing its last U bit checks it on the spot: not yet.
        a.r_time[:] = [3, 3, 3, 9]
        a.f_bits = a.full_mask
        a.u_bits = 0
        engine._maybe_free(a, 5)
        assert not a.freed and a in engine._free_candidates
        failures = engine.stats.vreg_alloc_failures
        fail_allocation(engine, now=5, seq=100)
        fail_allocation(engine, now=5, seq=200)
        assert engine.stats.vreg_alloc_failures == failures + 2
        assert not a.freed and not b.freed
        for now in range(6, 12):
            fail_allocation(engine, now=now, seq=100 * now)
            if a.freed:
                break
        freed_at[full] = now
        assert not b.freed  # U still set on its trigger
    assert freed_at[False] == freed_at[True] == 9


def test_store_conflict_defunct_register_is_a_candidate():
    """A store-conflict defunct register is freed by the next sweep once no
    validation of it is in flight, as by a full scan."""
    for full in (False, True):
        engine, a, b = starved_engine(full)
        a.u_bits = 0
        assert engine.on_store_commit(0x1020, now=6)  # element 1, speculative
        assert a.defunct and not a.freed
        fail_allocation(engine, now=7, seq=300)
        assert a.freed and not b.freed


def _sweep_log(full, name, scale=4000, registers=8):
    """Per-sweep ``(cycle, registers freed)`` and the final stats of a
    register-starved V run."""
    config = make_config(8, 1, "V")
    config.vector.num_registers = registers
    machine = Machine(config, cached_trace(name, scale))
    engine = machine.engine
    log = []
    sweep = engine._sweep_frees

    def logged(now):
        before = engine.stats.registers_freed
        if full:
            full_scan(engine, now)
        else:
            sweep(now)
        log.append((now, engine.stats.registers_freed - before))

    engine._sweep_frees = logged
    return log, dataclasses.asdict(machine.run())


@pytest.mark.parametrize("name", ["fpppp", "applu"])
def test_candidate_sweeps_free_what_full_scans_free_at_every_sweep(name):
    log, stats = _sweep_log(False, name)
    full_log, full_stats = _sweep_log(True, name)
    assert len(log) > 500 and sum(1 for _, freed in log if freed) >= 5
    assert log == full_log
    assert stats == full_stats
