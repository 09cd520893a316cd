"""Trace-driven fetch unit: width, taken-branch break, mispredict blocking."""

from repro.frontend import FetchUnit
from repro.memory import MemoryHierarchy

from ..conftest import asm_trace


def make_unit(text, width=4):
    trace = asm_trace(text)
    return FetchUnit(trace, MemoryHierarchy(), width), trace


def fetch(unit, now, room=99):
    """One fetch cycle: the ``(seq << 1) | mispredicted`` ints queued."""
    packed = []
    assert unit.fetch_into(now, packed, room) == len(packed)
    return packed


def seqs(packed):
    return [p >> 1 for p in packed]


def drain_icache(unit, now=0):
    """First access misses the I-cache; helper to get past the cold miss."""
    group = fetch(unit, now)
    assert group == []
    return 6  # miss latency


def test_width_limit():
    unit, trace = make_unit("nop\nnop\nnop\nnop\nnop\nnop\nnop\nhalt", width=4)
    now = drain_icache(unit)
    group = fetch(unit, now, room=99)
    assert len(group) == 4


def test_room_limit():
    unit, _ = make_unit("nop\nnop\nnop\nhalt", width=4)
    now = drain_icache(unit)
    group = fetch(unit, now, room=2)
    assert len(group) == 2


def test_taken_branch_ends_group():
    unit, trace = make_unit(
        """
        nop
        j target
        nop
    target:
        halt
        """
    )
    now = drain_icache(unit)
    group = fetch(unit, now, room=99)
    # nop + taken jump: the group must stop at the taken control transfer.
    assert [trace.entries[seq].pc for seq in seqs(group)] == [0, 1]


def test_not_taken_branch_does_not_end_group():
    unit, _ = make_unit(
        """
        li r1, 1
        beq r1, r0, skip
        nop
    skip:
        halt
        """
    )
    now = drain_icache(unit)
    # Cold predictor says not-taken (counter 2 -> taken actually).
    group = fetch(unit, now, room=99)
    assert len(group) >= 3 or group[-1] & 1


def test_mispredict_blocks_until_redirect():
    # A branch whose outcome alternates is guaranteed to mispredict early.
    unit, trace = make_unit(
        """
        li r1, 1
        beq r1, r0, skip   ; not taken; cold gshare predicts taken (counter=2)
        nop
    skip:
        halt
        """
    )
    now = drain_icache(unit)
    group = fetch(unit, now, room=99)
    mispredicted = [p >> 1 for p in group if p & 1]
    if mispredicted:
        seq = mispredicted[-1]
        # Blocked until redirected.
        assert fetch(unit, now + 1, room=99) == []
        unit.redirect(seq + 1, now + 5)
        assert fetch(unit, now + 4, room=99) == []
        resumed = fetch(unit, now + 5, room=99)
        assert resumed and seqs(resumed)[0] == seq + 1


def test_exhausted():
    unit, trace = make_unit("halt")
    now = drain_icache(unit)
    fetch(unit, now, room=99)
    assert unit.exhausted


def test_redirect_rewinds():
    unit, trace = make_unit("nop\nnop\nnop\nhalt")
    now = drain_icache(unit)
    fetch(unit, now, room=99)
    unit.redirect(1, now + 3)
    group = fetch(unit, now + 3, room=99)
    assert seqs(group)[0] == 1


def test_icache_miss_stalls_first_fetch():
    unit, _ = make_unit("nop\nhalt")
    assert fetch(unit, 0, room=99) == []
    assert fetch(unit, 3, room=99) == []  # still filling
    assert fetch(unit, 6, room=99) != []
