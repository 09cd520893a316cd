"""The cycle loop's fetch stage: packing, width, taken-branch break,
mispredict blocking, I-cache stalls.

The stage's body lives in ``Machine._cycles``; these tests drive it one
cycle at a time through ``Machine.step`` on a machine whose dispatch
stage cannot take anything (no ROB room), so the fetch queue after a
cycle holds exactly what that cycle's fetch queued.
"""

from repro.pipeline import make_config
from repro.pipeline.machine import Machine

from ..conftest import asm_trace


def make_unit(text, width=4):
    """A machine whose dispatch stage is shut, and its trace."""
    trace = asm_trace(text)
    machine = Machine(make_config(width, 1, "noIM"), trace)
    machine._rob_size = 0
    return machine, trace


def fetch(machine, now, room=99):
    """Run cycle ``now`` with ``room`` free fetch-queue slots: the
    ``(seq << 1) | mispredicted`` ints its fetch stage queued."""
    queue = machine.fetch_queue
    queue.clear()
    machine._fetch_queue_size = room
    machine.step(now)
    return list(queue)


def seqs(packed):
    return [p >> 1 for p in packed]


def drain_icache(machine, now=0):
    """First access misses the I-cache; helper to get past the cold miss."""
    group = fetch(machine, now)
    assert group == []
    return 6  # miss latency


def test_width_limit():
    machine, trace = make_unit("nop\nnop\nnop\nnop\nnop\nnop\nnop\nhalt", width=4)
    now = drain_icache(machine)
    group = fetch(machine, now, room=99)
    # In trace order, packed with a clear mispredict bit.
    assert group == [0 << 1, 1 << 1, 2 << 1, 3 << 1]
    assert seqs(fetch(machine, now + 1, room=99)) == [4, 5, 6, 7]


def test_room_limit():
    machine, _ = make_unit("nop\nnop\nnop\nhalt", width=4)
    now = drain_icache(machine)
    group = fetch(machine, now, room=2)
    assert seqs(group) == [0, 1]


def test_taken_branch_ends_group():
    machine, trace = make_unit(
        """
        nop
        j target
        nop
    target:
        halt
        """
    )
    now = drain_icache(machine)
    group = fetch(machine, now, room=99)
    # nop + taken jump: the group must stop at the taken control transfer.
    assert [trace.entries[seq].pc for seq in seqs(group)] == [0, 1]
    # The next cycle resumes at the jump's target.
    assert [trace.entries[seq].pc for seq in seqs(fetch(machine, now + 1))] == [3]


def test_not_taken_branch_does_not_end_group():
    # The beq is never taken.  The cold predictor gets it wrong until its
    # gshare counter (at the loop's settled global history) has trained
    # to not-taken; from then on a correctly predicted beq must not end
    # its group: beq, nop, addi and the taken bne share one cycle.
    machine, trace = make_unit(
        """
        li r1, 1
        li r2, 24
    loop:
        beq r1, r0, skip
        nop
    skip:
        addi r2, r2, -1
        bne r2, r0, loop
        halt
        """
    )
    beq_pc = 2
    now = drain_icache(machine)
    groups = []
    while not machine.fetch_unit.exhausted:
        group = fetch(machine, now)
        groups.append([(trace.entries[p >> 1].pc, p & 1) for p in group])
        if group and group[-1] & 1:
            machine.fetch_unit.redirect((group[-1] >> 1) + 1, now + 1)
        now += 1
    predicted = [g for g in groups if (beq_pc, 0) in g]
    assert len(predicted) >= 8
    for group in predicted:
        assert group[:2] == [(beq_pc, 0), (3, 0)]


def test_mispredict_blocks_until_redirect():
    machine, trace = make_unit(
        """
        li r1, 1
        beq r1, r0, skip   ; not taken; cold gshare predicts taken (counter=2)
        nop
    skip:
        halt
        """
    )
    now = drain_icache(machine)
    group = fetch(machine, now, room=99)
    # The mispredicted branch ends the group, packed with its bit set.
    assert group == [0 << 1, (1 << 1) | 1]
    seq = 1
    # Blocked until redirected.
    assert fetch(machine, now + 1, room=99) == []
    assert fetch(machine, now + 2, room=99) == []
    machine.fetch_unit.redirect(seq + 1, now + 5)
    assert fetch(machine, now + 4, room=99) == []
    resumed = fetch(machine, now + 5, room=99)
    assert resumed and seqs(resumed)[0] == seq + 1


def test_exhausted():
    machine, trace = make_unit("halt")
    now = drain_icache(machine)
    fetch(machine, now, room=99)
    assert machine.fetch_unit.exhausted
    assert fetch(machine, now + 1, room=99) == []


def test_redirect_rewinds():
    machine, trace = make_unit("nop\nnop\nnop\nhalt")
    now = drain_icache(machine)
    fetch(machine, now, room=99)
    machine.fetch_unit.redirect(1, now + 3)
    group = fetch(machine, now + 3, room=99)
    assert seqs(group)[0] == 1


def test_icache_miss_stalls_first_fetch():
    machine, _ = make_unit("nop\nhalt")
    assert fetch(machine, 0, room=99) == []
    assert fetch(machine, 3, room=99) == []  # still filling
    assert fetch(machine, 6, room=99) != []
