"""The memory stage: wide-bus grouping, MSHR back-pressure, port priority."""

import random

from repro.memory.hierarchy import HierarchyConfig
from repro.pipeline import make_config
from repro.pipeline.machine import InFlight, Machine

from ..conftest import asm_trace, run_timing


def test_wide_group_capped_at_four_loads():
    # Five loads to the same line: the wide bus serves at most 4 per access.
    text = """
        .data
        a: .word 1 2 3 4
        .text
        li r1, a
        ld r2, 0(r1)
        ld r3, 8(r1)
        ld r4, 16(r1)
        ld r5, 24(r1)
        ld r6, 0(r1)
        halt
    """
    stats = run_timing(text, ports=4, mode="IM")
    assert stats.read_accesses == 2  # 4 + 1


def test_wide_groups_split_across_lines():
    text = """
        .data
        a: .word 1 2 3 4 5 6 7 8
        .text
        li r1, a
        ld r2, 0(r1)
        ld r3, 32(r1)
        halt
    """
    stats = run_timing(text, ports=2, mode="IM")
    assert stats.read_accesses == 2  # different lines cannot coalesce


def test_mshr_backpressure_does_not_lose_loads():
    # Loads spread over many distinct lines with only 2 MSHRs: accesses
    # must retry, never drop.
    body = "\n".join(f"ld r2, {64 * i}(r1)" for i in range(12))
    trace = asm_trace(".data\na: .space 128\n.text\nli r1, a\n" + body + "\nhalt")
    config = make_config(4, 4, "IM")
    config.hierarchy = HierarchyConfig(max_outstanding_misses=2)
    stats = Machine(config, trace).run()
    assert stats.committed == len(trace.entries)
    assert stats.read_accesses == 12


def test_stores_get_port_priority_over_loads():
    # Commit runs before the memory scheduler each cycle, so a committing
    # store on a single-port machine is never starved by load traffic.
    text = (
        ".data\nx: .word 0\na: .word 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16\n.text\n"
        "li r1, x\nli r7, a\nli r2, 9\nst r2, 0(r1)\n"
        + "\n".join(f"ld r3, {8 * (i % 16)}(r7)" for i in range(24))
        + "\nhalt"
    )
    stats = run_timing(text, ports=1, mode="noIM")
    assert stats.write_accesses == 1
    assert stats.committed == 29


def test_vector_fetches_never_block_scalar_loads():
    # In V mode, scalar loads that still exist (non-vectorized gathers)
    # share ports with element fetches; everything must drain.
    stats = run_timing(
        """
        .data
        t: .word 40 16 0 24 8 32 48 56
        a: .word 1 2 3 4 5 6 7 8
        .text
            li r1, t
            li r4, 0
        loop:
            ld r2, 0(r1)     ; stride-1 index load -> vectorizes
            addi r6, r2, a   ; gather address
            ld r3, 0(r6)     ; random gather -> stays scalar
            add r7, r7, r3
            addi r1, r1, 8
            addi r4, r4, 1
            slti r5, r4, 8
            bne r5, r0, loop
            halt
        """,
        ports=1,
        mode="V",
    )
    assert stats.committed == 67
    assert stats.vector_load_instances >= 1


def test_read_transaction_count_matches_histogram_population():
    stats = run_timing(
        """
        .data
        a: .word 1 2 3 4 5 6 7 8
        .text
        li r1, a
        ld r2, 0(r1)
        ld r3, 8(r1)
        ld r4, 40(r1)
        halt
        """,
        ports=2,
        mode="IM",
    )
    hist = stats.usefulness
    assert abs(sum(hist.values()) - 1.0) < 1e-9
    # Two transactions: one with 2 useful words, one with 1.
    assert hist["2"] == 0.5 and hist["1"] == 0.5


# ---- the V-mode memory stage against a model of its grouping rules ---------
#
# ``_schedule_memory`` scans the engine's element-fetch queue in place.
# ``_plan`` below states the rules as a model over plain indices: scalar
# loads join line groups first; then fetches are taken from the head up to
# the ``4 * ports``-th live one, a dead fetch (freed or defunct register)
# is dropped (a defunct one completed with garbage), and a live one joins
# its line's newest group with room or opens one while fewer than
# ``ports`` groups exist.  Every group is served; the rest of the queue
# keeps its order.

LINE = 32


def _plan(scalar_addrs, fetches, ports):
    """``(groups, dropped, remaining)``: each group a list of ``("s", i)``
    / ``("f", j)`` members, the dropped fetch indices, and the indices left
    queued, in order."""
    groups, index = [], {}

    def place(member, addr):
        line = addr - addr % LINE
        g = index.get(line)
        if g is not None and len(g) < 4:
            g.append(member)
        elif len(groups) < ports:
            g = index[line] = [member]
            groups.append(g)

    for i, addr in enumerate(scalar_addrs):
        place(("s", i), addr)
    dropped, live = [], 0
    for j, (state, addr) in enumerate(fetches):
        if live == 4 * ports:
            break
        if state != "live":
            dropped.append(j)
            continue
        place(("f", j), addr)
        live += 1
    served = {j for g in groups for kind, j in g if kind == "f"}
    remaining = [j for j in range(len(fetches)) if j not in served and j not in dropped]
    return groups, dropped, remaining


def _stage(scalar_addrs, fetches, ports):
    """A V machine whose memory stage holds the given scalar loads and
    element fetches (one register per fetch), before one call."""
    trace = asm_trace(".data\na: .space 1024\n.text\nhalt")
    machine = Machine(make_config(4, ports, "V"), trace)
    engine = machine.engine
    items = []
    for j, (state, addr) in enumerate(fetches):
        reg = engine.vrf.allocate(100 + j, True, 0, -1)
        reg.make_load(addr - 8 * (j % 4), 8)
        if state == "defunct":
            reg.defunct = True
        elif state == "freed":
            engine.vrf.free(reg)
        items.append((reg, j % 4, addr))
    engine.pending_fetches.extend(items)
    loads = [InFlight(i, None, 1, addr, None, None, 0) for i, addr in enumerate(scalar_addrs)]
    machine.mem_queue = list(loads)
    return machine, loads, items


def _check_against_plan(scalar_addrs, fetches, ports):
    machine, loads, items = _stage(scalar_addrs, fetches, ports)
    groups, dropped, remaining = _plan(scalar_addrs, fetches, ports)
    machine._schedule_memory(now=5)
    served_s = {i for g in groups for kind, i in g if kind == "s"}
    served_f = {j for g in groups for kind, j in g if kind == "f"}
    for i, fl in enumerate(loads):
        assert (fl.done_at is not None) == (i in served_s), i
    assert machine.mem_queue == [fl for i, fl in enumerate(loads) if i not in served_s]
    for j, (reg, elem, _) in enumerate(items):
        state = fetches[j][0]
        if j in served_f:
            assert reg.r_time[elem] is not None and reg.txn_ids[elem] is not None
        elif j in dropped and state == "defunct":
            assert reg.r_time[elem] == 0  # garbage, so dependents resolve
        else:
            assert reg.r_time[elem] is None
    assert machine.engine.pending_fetches == [items[j] for j in remaining]
    assert machine.stats.read_accesses == len(groups)
    ports_ = machine.ports
    for txn, g in enumerate(groups):
        scalar_words = len({scalar_addrs[i] for kind, i in g if kind == "s"})
        spec = sum(kind == "f" for kind, _ in g)
        over = max(0, scalar_words + spec - 4)
        assert ports_.speculative_words[txn] == spec - min(over, spec)
        assert ports_.useful_words[txn] == scalar_words - (over - min(over, spec))
        for kind, j in g:
            if kind == "f":
                reg, elem, _ = items[j]
                assert reg.txn_ids[elem] == txn


def test_one_port_dead_fetch_at_the_head_beside_a_scalar_load_to_its_line():
    # The scalar load opens the only group; the dead head fetch takes no
    # slot in it, and the three live fetches of the same line fill it.
    base = 0x1000
    for state in ("freed", "defunct"):
        fetches = [
            (state, base + 8),
            ("live", base + 16),
            ("live", base + 64),  # another line: waits, keeps its place
            ("live", base + 24),
            ("live", base),
            ("live", base + 8),  # the group is full (load + 3 fetches)
        ]
        _check_against_plan([base + 8], fetches, ports=1)
        groups, dropped, remaining = _plan([base + 8], fetches, 1)
        assert dropped == [0] and remaining == [2, 5]
        assert groups == [[("s", 0), ("f", 1), ("f", 3), ("f", 4)]]


def test_fetch_scan_stops_at_the_four_per_port_live_limit():
    # Dead fetches past the 4th live one are not reached this cycle.
    base = 0x2000
    fetches = [("live", base + 64 * k) for k in range(4)] + [("defunct", base)]
    _check_against_plan([], fetches, ports=1)
    assert _plan([], fetches, 1)[1] == []


def test_memory_stage_matches_the_grouping_model():
    rng = random.Random(41)
    states = ("live",) * 6 + ("freed", "defunct")
    for _ in range(300):
        ports = rng.choice((1, 1, 2, 4))
        lines = [0x1000 + LINE * k for k in range(rng.randint(1, 4))]
        scalar_addrs = [
            rng.choice(lines) + 8 * rng.randrange(4) for _ in range(rng.randint(0, 4))
        ]
        fetches = [
            (rng.choice(states), rng.choice(lines) + 8 * rng.randrange(4))
            for _ in range(rng.randint(0, 14))
        ]
        if scalar_addrs or fetches:
            _check_against_plan(scalar_addrs, fetches, ports)


def test_mshr_full_leaves_the_unserved_groups_queued():
    # One MSHR: the first group's line misses and takes it; the second
    # group's line cannot start, so its fetches stay queued in order while
    # the dead fetch is still dropped.
    trace = asm_trace(".data\na: .space 1024\n.text\nhalt")
    config = make_config(4, 2, "V")
    config.hierarchy = HierarchyConfig(max_outstanding_misses=1)
    machine = Machine(config, trace)
    engine = machine.engine
    regs = [engine.vrf.allocate(100 + j, True, 0, -1) for j in range(3)]
    for reg in regs:
        reg.make_load(0x1000, 8)
    regs[1].defunct = True
    items = [(regs[0], 0, 0x1000), (regs[1], 0, 0x1000), (regs[2], 1, 0x1040)]
    engine.pending_fetches.extend(items)
    machine._schedule_memory(now=5)
    assert regs[0].r_time[0] is not None and regs[1].r_time[0] == 0
    assert engine.pending_fetches == [items[2]]
    assert machine.stats.read_accesses == 1
