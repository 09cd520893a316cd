"""Unit tests for the trace bus: ordering, overflow, filtering, JSON lines."""

from __future__ import annotations

import json

import pytest

from repro.observe.events import (
    EVENT_GROUPS,
    EVENT_KINDS,
    SQUASH_COHERENCE,
    TL_DEMOTE,
    TL_PROMOTE,
    TraceBus,
    TraceEvent,
    VALIDATE_FAIL,
    VALIDATE_PASS,
    VRMT_INVALIDATE,
    VRMT_MAP,
    resolve_event_kinds,
)


def test_events_come_back_in_emission_order():
    bus = TraceBus()
    bus.emit(5, TL_PROMOTE, pc=4)
    bus.emit(5, VRMT_MAP, pc=4)
    bus.emit(9, VALIDATE_PASS, pc=4)
    got = [(e.cycle, e.kind) for e in bus.events]
    assert got == [(5, TL_PROMOTE), (5, VRMT_MAP), (9, VALIDATE_PASS)]
    assert bus.emitted == 3


def test_ring_overflow_drops_oldest_keeps_counts():
    bus = TraceBus(capacity=4)
    for cycle in range(10):
        bus.emit(cycle, TL_PROMOTE, pc=cycle)
    assert bus.emitted == 10
    assert bus.dropped == 6
    assert [e.cycle for e in bus.events] == [6, 7, 8, 9]  # newest survive
    # Per-kind totals are overflow-proof: the cross-check against
    # SimStats counters must survive a saturated ring.
    assert bus.count(TL_PROMOTE) == 10


def test_kind_filter_skips_capture_and_counting():
    bus = TraceBus(kinds=frozenset((VALIDATE_FAIL,)))
    assert bus.wants(VALIDATE_FAIL) and not bus.wants(VALIDATE_PASS)
    bus.emit(1, VALIDATE_PASS, pc=2)
    bus.emit(2, VALIDATE_FAIL, pc=2)
    assert bus.emitted == 1
    assert bus.count(VALIDATE_PASS) == 0
    assert [e.kind for e in bus.events] == [VALIDATE_FAIL]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        TraceBus(capacity=0)


def test_event_to_dict_omits_absent_pc_and_seq():
    assert TraceEvent(7, SQUASH_COHERENCE).to_dict() == {
        "cycle": 7,
        "kind": SQUASH_COHERENCE,
    }
    full = TraceEvent(7, VALIDATE_FAIL, pc=12, seq=99, data={"reason": "x"})
    assert full.to_dict() == {
        "cycle": 7,
        "kind": VALIDATE_FAIL,
        "pc": 12,
        "seq": 99,
        "reason": "x",
    }


def test_jsonl_export_round_trips():
    # One line as `python -m repro trace` writes it.
    bus = TraceBus()
    bus.emit(3, VRMT_INVALIDATE, pc=8, reason="operands")
    (event,) = bus.events
    line = json.dumps(event.to_dict(), sort_keys=True)
    assert json.loads(line) == {
        "cycle": 3,
        "kind": VRMT_INVALIDATE,
        "pc": 8,
        "reason": "operands",
    }


def test_summary_reports_accounting():
    bus = TraceBus(capacity=2)
    for cycle in range(3):
        bus.emit(cycle, TL_DEMOTE)
    summary = bus.summary()
    assert summary["emitted"] == 3
    assert summary["captured"] == 2
    assert summary["dropped"] == 1
    assert summary["counts"] == {TL_DEMOTE: 3}


# -- filter resolution -------------------------------------------------------


def test_resolve_accepts_exact_kinds_groups_and_prefixes():
    assert resolve_event_kinds(None) is None
    assert resolve_event_kinds(["validate.fail"]) == frozenset((VALIDATE_FAIL,))
    assert resolve_event_kinds(["validation"]) == frozenset(
        (VALIDATE_PASS, VALIDATE_FAIL)
    )
    assert resolve_event_kinds(["vrmt"]) == frozenset((VRMT_MAP, VRMT_INVALIDATE))
    combined = resolve_event_kinds(["tl", "squash.coherence"])
    assert combined == frozenset((TL_PROMOTE, TL_DEMOTE, SQUASH_COHERENCE))


def test_resolve_rejects_unknown_tokens():
    with pytest.raises(ValueError, match="unknown event filter"):
        resolve_event_kinds(["bogus"])


def test_groups_cover_the_taxonomy():
    covered = {kind for kinds in EVENT_GROUPS.values() for kind in kinds}
    assert covered == EVENT_KINDS
