"""Work the cycle loop skips because its outcome is already fixed.

* Fig 10's window population is counted when a mispredicted branch
  resolves, not instruction by instruction at commit: it must equal the
  count a per-commit scan of the window takes, also when the window runs
  past the end of the trace.
* An instruction that finds every unit of its FU class busy parks until
  the first unit frees instead of being rescanned every cycle: it must be
  off the scan while it waits, and issue at exactly that cycle.
"""

import dataclasses

import pytest

from repro.isa.opcodes import FuClass, Opcode
from repro.pipeline import make_config
from repro.pipeline.machine import CFI_WINDOW, Machine

from ..conftest import asm_trace

# Two counted loops: the first loop's exit mispredicts with the whole
# second loop still ahead (a full window); the second loop's exit
# mispredicts a few instructions before the trace ends (a truncated one).
TWO_LOOPS = """
.data
    a: .word 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20
.text
    li   r1, a
    li   r4, 0
first:
    ld   r3, 0(r1)
    add  r2, r2, r3
    addi r1, r1, 8
    addi r4, r4, 1
    slti r5, r4, 20
    bne  r5, r0, first
    li   r1, a
    li   r4, 0
second:
    ld   r3, 0(r1)
    add  r6, r6, r3
    addi r1, r1, 8
    addi r4, r4, 1
    slti r5, r4, 20
    bne  r5, r0, second
    add  r7, r2, r6
    halt
"""


@pytest.mark.parametrize("mode", ["noIM", "V"])
def test_cfi_window_count_equals_per_commit_log(mode):
    trace = asm_trace(TWO_LOOPS)
    n = len(trace.entries)
    machine = Machine(make_config(4, 1, mode), trace)
    resolutions = []  # (branch seq, cycle of its resolution)
    resolve = machine._resolve_mispredict

    def logged_resolve(fl, now):
        resolutions.append((fl.seq, now))
        resolve(fl, now)

    machine._resolve_mispredict = logged_resolve
    commit_cycle = {}  # seq -> the cycle it committed in
    now = 0
    while machine.committed_count < n:
        before = machine.committed_count
        machine.step(now)
        for seq in range(before, machine.committed_count):
            commit_cycle[seq] = now
        now += 1
    stats = machine._finish(now)

    # The per-commit count: every instruction among the CFI_WINDOW after
    # a resolved branch that commits after the resolution.  (Commit runs
    # before execute within a cycle, so a same-cycle commit is earlier.)
    expected = sum(
        1
        for bseq, resolved in resolutions
        for seq in range(bseq + 1, min(bseq + CFI_WINDOW, n - 1) + 1)
        if commit_cycle[seq] > resolved
    )
    assert stats.cfi_window_instructions == expected
    assert len(resolutions) == stats.branch_mispredicts >= 2
    # Both a full window and one the trace end truncates were counted.
    assert any(n - 1 - bseq >= CFI_WINDOW for bseq, _ in resolutions)
    assert 0 < n - 1 - resolutions[-1][0] < CFI_WINDOW

    # The stepped run is the plain run.
    plain = Machine(make_config(4, 1, mode), trace).run()
    assert dataclasses.asdict(stats) == dataclasses.asdict(plain)


# Three independent divides on the 4-way machine's single FP divider
# (unpipelined: busy for the whole 14-cycle op).
DIVIDES = """
.text
    li   r1, 3
    itof f1, r1
    li   r2, 7
    itof f2, r2
    fdiv f3, f2, f1
    fdiv f4, f2, f1
    fdiv f5, f2, f1
    halt
"""


def test_fu_blocked_divide_parks_until_the_divider_frees():
    trace = asm_trace(DIVIDES)
    config = make_config(4, 1, "noIM")
    assert config.fu_pool_sizes()[FuClass.FP_DIV] == 1
    machine = Machine(config, trace)
    divider = machine.fu_free[int(FuClass.FP_DIV)]
    latency = 14
    divides = [e.seq for e in trace.entries if e.op == Opcode.FDIV]
    assert len(divides) == 3
    issued = {}  # seq -> issue cycle
    checked = 0
    now = 0
    while machine.committed_count < len(trace.entries):
        machine.step(now)
        window = {fl.seq: fl for fl in machine.rob}
        for seq in divides:
            fl = window.get(seq)
            if fl is None or seq in issued:
                continue
            if fl.done_at is not None:
                issued[seq] = fl.done_at - latency
                continue
            if not issued:
                continue  # the first divide has not issued yet
            # Blocked on the busy divider: off the scan, parked until the
            # divider's free cycle.
            assert fl not in machine.waiting
            wakes = [wake for wake, _, parked in machine._parked if parked is fl]
            assert wakes == [divider[0]]
            assert divider[0] > now
            checked += 1
        now += 1

    first, second, third = (issued[seq] for seq in divides)
    # Each divide issues the cycle the one before it frees the divider.
    assert second == first + latency
    assert third == second + latency
    assert checked >= 2 * latency - 2
