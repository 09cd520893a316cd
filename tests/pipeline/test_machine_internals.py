"""White-box tests of the machine's internal state transitions."""

import gc

import pytest

from repro.pipeline import make_config
from repro.pipeline.machine import (
    K_LOAD,
    K_SCALAR,
    K_STORE,
    K_TRIGGER,
    K_VALIDATION,
    InFlight,
    Machine,
)
from repro.workloads.spec95 import cached_trace

from ..conftest import asm_trace


def make_machine(text, mode="V", **vector_overrides):
    trace = asm_trace(text)
    config = make_config(4, 1, mode)
    for key, value in vector_overrides.items():
        setattr(config.vector, key, value)
    return Machine(config, trace), trace


def run_cycles(machine, n):
    for now in range(n):
        machine.step(now)
    return n


STRIDED = """
    .data
    a: .word 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
    .text
        li r1, a
        li r4, 0
    loop:
        ld r3, 0(r1)
        add r2, r2, r3
        addi r1, r1, 8
        addi r4, r4, 1
        slti r5, r4, 16
        bne r5, r0, loop
        halt
"""


def test_rob_commits_in_order():
    # In-order commit: after every cycle the ROB head is exactly the next
    # instruction to commit (seqs 0..committed_count-1 have left).
    machine, trace = make_machine(STRIDED, mode="noIM")
    now = 0
    while machine.committed_count < len(trace.entries):
        machine.step(now)
        assert not machine.rob or machine.rob[0].seq == machine.committed_count
        now += 1
        assert now < 10_000, "run wedged"
    assert machine.committed_count == len(trace.entries)


def test_rob_capacity_respected():
    machine, _ = make_machine(STRIDED, mode="noIM")
    max_seen = 0
    for now in range(200):
        machine.step(now)
        max_seen = max(max_seen, len(machine.rob))
    assert max_seen <= machine.config.rob_size


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
        slti r5, r4, 20
        bne r5, r0, loop
        halt
"""


def test_lsq_capacity_respected():
    # The disambiguation walk reads ``machine.lsq``, which holds only the
    # in-flight stores, oldest first, so it never visits a load.  The
    # queue's occupancy (scalar loads and stores in the window) is
    # ``lsq_count``, bounded by lsq_size every cycle — squashes included
    # (the V spill loop's store-coherence conflicts flush).
    for text, mode in ((STRIDED, "noIM"), (SPILL_LOOP, "noIM"), (SPILL_LOOP, "V")):
        machine, trace = make_machine(text, mode=mode)
        now = 0
        while machine.committed_count < len(trace.entries):
            machine.step(now)
            now += 1
            assert now < 10_000, "run wedged"
            assert all(fl.kind == K_STORE for fl in machine.lsq)
            seqs = [fl.seq for fl in machine.lsq]
            assert seqs == sorted(seqs)
            in_window = [fl for fl in machine.rob if fl.kind in (K_LOAD, K_STORE)]
            assert machine.lsq_count == len(in_window) <= machine.config.lsq_size
            assert list(machine.lsq) == [fl for fl in in_window if fl.kind == K_STORE]
        assert machine.lsq_count == 0
        if mode == "V":
            assert machine.stats.store_conflicts > 0


def test_kinds_assigned():
    machine, _ = make_machine(STRIDED, mode="V")
    seen = set()
    for now in range(400):
        machine.step(now)
        for fl in machine.rob:
            seen.add(fl.kind)
        if machine.committed_count >= machine.config.rob_size:
            break
    assert K_SCALAR in seen
    assert K_TRIGGER in seen or K_VALIDATION in seen


def test_rename_map_restored_after_flush():
    # A store-conflict squash exercises _flush_from; the rename map must
    # roll back exactly (checked indirectly: the run completes soundly and
    # results keep committing in order).
    machine, trace = make_machine(SPILL_LOOP, mode="V")
    stats = machine.run()
    assert stats.store_conflicts > 0  # the squash path really ran
    assert stats.committed == len(trace.entries)
    assert not machine.rob and not machine.lsq and not machine.waiting
    assert machine.lsq_count == 0


def test_commit_memory_tracks_committed_stores_only():
    machine, trace = make_machine(
        """
        .data
        x: .word 5
        .text
        li r1, x
        li r2, 9
        st r2, 0(r1)
        halt
        """,
        mode="noIM",
    )
    # Before any commit the image equals the initial memory.
    assert machine.commit_memory.load(0x1000) == 5
    machine.run()
    assert machine.commit_memory.load(0x1000) == 9


def test_final_commit_memory_matches_functional(sum_loop):
    machine = Machine(make_config(4, 1, "V"), sum_loop)
    machine.run()
    assert machine.commit_memory == sum_loop.final_memory


def test_store_kind_writes_at_commit_not_execute():
    machine, _ = make_machine(
        """
        .data
        x: .word 0
        .text
        li r1, x
        li r2, 3
        st r2, 0(r1)
        nop
        halt
        """,
        mode="noIM",
    )
    # Step until the store has executed but look before it commits.
    wrote_early = False
    for now in range(60):
        store = next((fl for fl in machine.rob if fl.kind == K_STORE), None)
        if store is not None and store.done_at is not None:
            if machine.commit_memory.load(0x1000) != 0 and store in machine.rob:
                # value visible while store still in ROB would be a bug
                # unless the commit already popped it this same call.
                wrote_early = machine.rob and machine.rob[0] is store
        machine.step(now)
        if machine.committed_count >= 5:
            break
    assert not wrote_early


def test_vector_state_survives_branch_misprediction():
    machine, trace = make_machine(
        """
        .data
        d: .word 1 0 0 1 1 0 1 0 1 1 0 0 1 0 1 0
        .text
            li r1, d
            li r4, 0
        loop:
            ld r2, 0(r1)
            beq r2, r0, skip
            addi r6, r6, 1
        skip:
            addi r1, r1, 8
            addi r4, r4, 1
            slti r5, r4, 16
            bne r5, r0, loop
            halt
        """,
        mode="V",
    )
    # §3.5: mispredictions must not free vector registers.  Every branch
    # resolution goes through _resolve_mispredict (_cycles binds it on
    # each entry, so the instance attribute below is what runs); the set
    # of live registers must be the same on both sides of every call.
    vrf = machine.engine.vrf
    resolve = machine._resolve_mispredict
    live_at_resolve = []

    def checked_resolve(fl, now):
        before = {id(reg) for reg in vrf.live_registers()}
        resolve(fl, now)
        assert {id(reg) for reg in vrf.live_registers()} == before
        live_at_resolve.append(len(before))

    machine._resolve_mispredict = checked_resolve
    for now in range(2000):
        machine.step(now)
        if machine.committed_count >= len(trace.entries):
            break
    assert machine.committed_count == len(trace.entries)
    assert len(live_at_resolve) == machine.stats.branch_mispredicts > 0
    assert any(live_at_resolve), "no resolve saw a live vector register"


def test_machine_reports_wedge_instead_of_hanging():
    machine, trace = make_machine("nop\nhalt", mode="noIM")
    # Sabotage: block the fetch unit forever.
    machine.fetch_unit._blocked = True
    try:
        machine.run()
    except RuntimeError as exc:
        assert "wedged" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("expected a wedge diagnosis")


@pytest.mark.parametrize("name,mode", [("gcc", "noIM"), ("swim", "V")])
def test_run_leaves_no_committed_history_reachable(name, mode):
    # A committed instruction cannot be squashed, so its rename rollback
    # token is dropped at commit; otherwise every committed writer links
    # to the one before it and the whole run stays alive for the garbage
    # collector to walk.  After run() the only InFlight records left are
    # the rename map's last writers and the recycled validation records.
    trace = cached_trace(name, 2000)
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, InFlight)]
    machine = Machine(make_config(4, 1, mode), trace)
    machine.run()
    gc.collect()
    old = {id(o) for o in before}
    live = {
        id(o) for o in gc.get_objects() if isinstance(o, InFlight) and id(o) not in old
    }
    held = {id(tok) for tok in machine.rename if isinstance(tok, InFlight)}
    held |= {id(fl) for fl in machine._vec_pool}
    assert not machine.rob
    assert live <= held, f"{len(live - held)} committed InFlight records still reachable"
