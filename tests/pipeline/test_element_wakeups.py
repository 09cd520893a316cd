"""Vector-element wake-ups: blocked instructions leave the execute scan.

An instruction blocked on a vector element that has not been scheduled
(``r_time`` None) sleeps on that element instead of being rescanned
every cycle; the element's ready-time writer moves it onto the machine's
park heap at the ready cycle.  A validation failure defuncts a register,
so that register's sleepers — older validations in particular — must be
rescanned the next cycle, as a polled instruction would be.  Both are
checked cycle by cycle on ``step()``-driven runs, whose statistics must
equal a plain run's.
"""

import dataclasses
import random

from repro.functional import run_program
from repro.isa import assemble
from repro.pipeline.config import make_config
from repro.pipeline.machine import Machine
from repro.verify.fuzzer import generate_genome, synthesize

# Fuzz programs at the default machine shape rarely fail a validation
# while older sleepers of its register wait (none of seeds 0-59 does), so
# the failure case uses a hand-written loop: a strided load at 32-byte
# stride (one line per element) feeding an accumulator.  The loop
# counter, not a loaded value, breaks the stride after iteration ``r9``,
# so the failing validation dispatches early; with one MSHR the element
# fetches issue one miss at a time, so the register's older elements are
# still unscheduled when it fails.
STRIDE_BREAK = """
.text
    li   r3, 4160
    li   r9, 9
loop:
    ld   r2, 0(r3)
    add  r8, r8, r2
    bne  r6, r9, skip
    addi r3, r3, 8
skip:
    addi r3, r3, 32
    addi r6, r6, 1
    slti r5, r6, 24
    bne  r5, r0, loop
    halt
"""


def _config(mshrs=16):
    config = make_config(4, 1, "V")
    config.hierarchy.max_outstanding_misses = mshrs
    return config


def _sleepers(machine):
    """``{id: (reg, elem, fl)}`` for every unsquashed element sleeper."""
    out = {}
    for reg in machine.engine.vrf.live_registers():
        for k, group in enumerate(reg.sleepers or ()):
            for fl in group or ():
                if not fl.squashed:
                    out[id(fl)] = (reg, k, fl)
    return out


def _stepped_run(trace, config):
    """Drive the machine one cycle at a time, checking the sleep/wake
    invariants; returns (final stats, sleepers seen, failure drains)."""
    machine = Machine(config, trace)
    now = 0
    slept = drained = 0
    while machine.committed_count < len(trace.entries):
        before = _sleepers(machine)
        defunct_before = {id(reg) for reg in machine.engine.vrf.live_registers() if reg.defunct}
        flushes = machine.stats.validation_failures + machine.stats.store_conflicts
        failures = machine.stats.validation_failures
        machine.step(now)
        parked = set(machine._parked)
        waiting = set(map(id, machine.waiting))
        # Asleep means off the scan: neither waiting nor parked.
        for reg, k, fl in _sleepers(machine).values():
            assert reg.r_time[k] is None
            assert id(fl) not in waiting
            assert not any(e[2] is fl for e in parked)
        failed = machine.stats.validation_failures > failures
        flushed = machine.stats.validation_failures + machine.stats.store_conflicts > flushes
        for reg, k, fl in before.values():
            if fl.squashed:
                continue
            t = reg.r_time[k]
            if failed and reg.defunct and id(reg) not in defunct_before:
                # The failure defuncted this sleeper's register: unless it
                # could already run, it is back on the scan next cycle.
                if t is None or t > now:
                    assert id(fl) in waiting
                    drained += 1
            elif t is not None and t > now and not flushed:
                # Its element got a ready time this cycle: parked until it.
                assert (t, fl.seq, fl) in parked
        slept += len(before)
        now += 1
        assert now < 100_000, "run wedged"
    return dataclasses.asdict(machine._finish(now)), slept, drained


def test_sleepers_leave_the_scan_and_rejoin_at_the_ready_cycle():
    program = synthesize(generate_genome(random.Random(8)))
    trace = run_program(program, max_instructions=20_000)
    assert trace.halted
    stepped, slept, _ = _stepped_run(trace, _config())
    assert slept > 0  # the program really blocks on unscheduled elements
    assert stepped == dataclasses.asdict(Machine(_config(), trace).run())


def test_validation_failure_rescans_sleepers_of_the_defunct_register():
    trace = run_program(assemble(STRIDE_BREAK), max_instructions=50_000)
    assert trace.halted
    stepped, _, drained = _stepped_run(trace, _config(mshrs=1))
    assert stepped["validation_failures"] > 0
    assert drained > 0  # older sleepers of the failed register existed
    assert stepped == dataclasses.asdict(Machine(_config(mshrs=1), trace).run())
