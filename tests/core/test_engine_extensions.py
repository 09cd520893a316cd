"""The TL damping configuration extension, and register recycling."""

from ..conftest import run_timing

SHORT_REWALK = """
    .data
    a: .word 1 2 3 4 5 6 7 8 9 10
    .text
        li r6, 0
    outer:
        li r1, a
        li r4, 0
    loop:
        ld r3, 0(r1)
        add r2, r2, r3
        addi r1, r1, 8
        addi r4, r4, 1
        slti r5, r4, 10
        bne r5, r0, loop
        addi r6, r6, 1
        slti r5, r6, 12
        bne r5, r0, outer
        halt
"""

SPILL_LOOP = """
    .data
    x: .word 0
    .text
        li r1, x
        li r4, 0
    loop:
        ld r2, 0(r1)
        addi r2, r2, 1
        st r2, 0(r1)
        addi r4, r4, 1
        slti r5, r4, 64
        bne r5, r0, loop
        halt
"""


def test_damping_off_matches_paper_text_and_squashes_more():
    damped = run_timing(SPILL_LOOP, mode="V", tl_damping=True)
    literal = run_timing(SPILL_LOOP, mode="V", tl_damping=False)
    assert literal.store_conflicts > damped.store_conflicts
    # Both stay sound and complete.
    assert literal.committed == damped.committed


def test_damping_off_still_sound_on_stride_breaks():
    stats = run_timing(SHORT_REWALK, mode="V", tl_damping=False)
    # fetched > committed: squashed instructions are re-dispatched.
    assert stats.fetched >= stats.committed > 0
    assert stats.validation_failures > 0


def test_abandoned_registers_do_not_leak(sum_loop):
    stats = run_timing(sum_loop, mode="V", num_registers=8)
    # Registers left behind by a finished loop must be freed: with only 8
    # registers, a leak would starve the pool and show up as massive
    # allocation failures.
    assert stats.committed == len(sum_loop.entries)
    assert stats.registers_freed > 0
