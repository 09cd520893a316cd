"""Trace serialization round trips and timing-model equivalence."""

import dataclasses
import marshal
import math
import zlib

import pytest

from repro.functional import traceio
from repro.functional.trace import TraceSoA
from repro.functional.traceio import (
    TraceFormatError,
    dumps_soa,
    dumps_trace,
    dumps_trace_binary,
    loads_soa,
    loads_trace,
    loads_trace_binary,
)
from repro.pipeline import make_config
from repro.pipeline.machine import Machine

from ..conftest import asm_trace


def test_roundtrip_preserves_entries(sum_loop):
    loaded = loads_trace(dumps_trace(sum_loop))
    assert len(loaded.entries) == len(sum_loop.entries)
    for a, b in zip(sum_loop.entries, loaded.entries):
        assert (a.seq, a.pc, a.op, a.rd, a.addr, a.value, a.taken, a.next_pc) == (
            b.seq,
            b.pc,
            b.op,
            b.rd,
            b.addr,
            b.value,
            b.taken,
            b.next_pc,
        )


def test_roundtrip_preserves_boundary_state(sum_loop):
    loaded = loads_trace(dumps_trace(sum_loop))
    assert loaded.halted == sum_loop.halted
    assert loaded.final_int_regs == sum_loop.final_int_regs
    assert loaded.initial_memory == sum_loop.initial_memory
    assert loaded.final_memory == sum_loop.final_memory


def test_float_values_roundtrip():
    trace = asm_trace(
        """
        .data
        v: .word 2.5 0.1
        .text
        li r1, v
        fld f1, 0(r1)
        fld f2, 8(r1)
        fadd f3, f1, f2
        fst f3, 0(r1)
        halt
        """
    )
    loaded = loads_trace(dumps_trace(trace))
    assert loaded.final_memory.load(0x1000) == 2.5 + 0.1


def test_loaded_trace_simulates_identically(sum_loop):
    """A serialized trace is a complete simulation input: cycles and all
    vectorization statistics must match the original exactly."""
    for loaded in (
        loads_trace(dumps_trace(sum_loop)),
        loads_trace_binary(dumps_trace_binary(sum_loop)),
    ):
        for mode in ("noIM", "IM", "V"):
            a = Machine(make_config(4, 1, mode), sum_loop).run()
            b = Machine(make_config(4, 1, mode), loaded).run()
            assert a.cycles == b.cycles, mode
            assert a.read_accesses == b.read_accesses
            assert a.validations_committed == b.validations_committed
            assert a.branch_mispredicts == b.branch_mispredicts


def test_bad_header_rejected():
    with pytest.raises(TraceFormatError):
        loads_trace("not json\n")


def test_wrong_version_rejected():
    with pytest.raises(TraceFormatError):
        loads_trace('{"format": 99, "entries": 0, "halted": true, "program_len": 1}\n{}\n{"int": [], "fp": []}\n')


def test_bad_row_rejected(sum_loop):
    text = dumps_trace(sum_loop, version=2)
    lines = text.splitlines()
    lines[3] = "[1, 2, 3]"  # malformed entry row
    with pytest.raises(TraceFormatError):
        loads_trace("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# packed format 3 vs legacy formats
# ---------------------------------------------------------------------------


def test_default_format_is_packed(sum_loop):
    text = dumps_trace(sum_loop)
    header = text.splitlines()[0]
    assert '"format": 3' in header
    assert len(text.splitlines()) == 2  # header + one packed body line


def test_packed_format_is_smaller(sum_loop):
    packed = dumps_trace(sum_loop)
    legacy = dumps_trace(sum_loop, version=2)
    assert len(packed) < len(legacy) / 4


def test_legacy_format2_still_loads(sum_loop):
    """Files written before the packed format stay readable (fallback)."""
    legacy = loads_trace(dumps_trace(sum_loop, version=2))
    packed = loads_trace(dumps_trace(sum_loop))
    assert len(legacy.entries) == len(packed.entries)
    for a, b in zip(legacy.entries, packed.entries):
        assert (a.seq, a.pc, a.op, a.s1, a.s2, a.value, a.addr, a.taken) == (
            b.seq, b.pc, b.op, b.s1, b.s2, b.value, b.addr, b.taken,
        )
    assert legacy.final_int_regs == packed.final_int_regs
    assert legacy.final_fp_regs == packed.final_fp_regs
    assert legacy.initial_memory == packed.initial_memory


def test_unwritable_version_rejected(sum_loop):
    with pytest.raises(ValueError):
        dumps_trace(sum_loop, version=1)


def test_corrupt_packed_body_rejected(sum_loop):
    text = dumps_trace(sum_loop)
    header, body = text.splitlines()
    for poison in ("", "!!!not-base85-at-all~~~", body[: len(body) // 2]):
        with pytest.raises(TraceFormatError):
            loads_trace(header + "\n" + poison + "\n")


def test_packed_floats_roundtrip_exactly():
    trace = asm_trace(
        """
        .data
        v: .word 0.1 2.5
        .text
        li r1, v
        fld f1, 0(r1)
        fld f2, 8(r1)
        fadd f3, f1, f2
        fst f3, 0(r1)
        halt
        """
    )
    loaded = loads_trace(dumps_trace(trace))
    for a, b in zip(trace.entries, loaded.entries):
        assert a.s1 == b.s1 and a.s2 == b.s2 and a.value == b.value


@pytest.mark.parametrize("header", ['{"format": 3}', "[3]", '{"format": 3, "entries": "7"}'])
def test_malformed_header_rejected(sum_loop, header):
    """A header that parses as JSON but lacks a field or has the wrong
    shape is a format error, not a KeyError/AttributeError."""
    body = dumps_trace(sum_loop).splitlines()[1]
    with pytest.raises(TraceFormatError):
        loads_trace(header + "\n" + body + "\n")


# ---------------------------------------------------------------------------
# binary columnar codec (the disk cache's traces/ and soa/ sections)
# ---------------------------------------------------------------------------


def _same(a, b):
    """Equal value *and* Python type; NaN equals NaN, -0.0 differs from 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
        )
    return a == b


def test_binary_roundtrip_preserves_values_and_types(sum_loop):
    entries = list(sum_loop.entries)
    entries[0] = dataclasses.replace(entries[0], s1=-0.0, s2=float("nan"), value=2.5)
    entries[1] = dataclasses.replace(entries[1], value=float("-inf"), s1=True)
    trace = dataclasses.replace(sum_loop, entries=entries)
    loaded = loads_trace_binary(dumps_trace_binary(trace))

    assert len(loaded.entries) == len(trace.entries)
    for a, b in zip(trace.entries, loaded.entries):
        for name in traceio._ENTRY_FIELDS:
            assert _same(getattr(a, name), getattr(b, name)), name
    assert loaded.halted == trace.halted
    assert loaded.final_int_regs == trace.final_int_regs
    assert all(map(_same, trace.final_fp_regs, loaded.final_fp_regs))
    assert sorted(loaded.initial_memory.items()) == sorted(trace.initial_memory.items())
    assert loaded.final_memory == trace.final_memory
    assert len(loaded.program) == len(trace.program)
    assert [loaded.program.is_backward(pc) for pc in range(len(loaded.program))] == [
        trace.program.is_backward(pc) for pc in range(len(trace.program))
    ]


def test_binary_soa_roundtrip_keeps_column_types(sum_loop):
    soa = TraceSoA(sum_loop.entries)
    loaded = loads_soa(dumps_soa(soa))
    for name in TraceSoA.__slots__:
        assert all(map(_same, getattr(soa, name), getattr(loaded, name))), name


def _repacked(data, edit):
    """``data`` with its decoded payload tuple rewritten by ``edit``."""
    payload = list(marshal.loads(zlib.decompress(data)))
    edit(payload)
    return zlib.compress(marshal.dumps(tuple(payload)), 1)


def _short_column(payload):
    payload[-1] = payload[-1][:-1]


def _bump_version(payload):
    payload[1] += 1


def _codec(name, trace):
    """``(payload bytes, loader)`` of ``trace`` in the named binary section."""
    if name == "trace":
        return dumps_trace_binary(trace), loads_trace_binary
    return dumps_soa(TraceSoA(trace.entries)), loads_soa


@pytest.mark.parametrize("edit", [_short_column, _bump_version], ids=["short", "version"])
@pytest.mark.parametrize("codec", ["trace", "soa"])
def test_binary_payload_shape_and_version_checked(sum_loop, codec, edit):
    data, loads = _codec(codec, sum_loop)
    with pytest.raises(TraceFormatError):
        loads(_repacked(data, edit))


@pytest.mark.parametrize("codec", ["trace", "soa"])
def test_truncated_or_bitflipped_binary_payload_rejected(sum_loop, codec):
    data, loads = _codec(codec, sum_loop)
    poisons = [b"", data[: len(data) // 2], data[:-1], b"\x00not json at all\xff{["]
    for pos in (0, 1, len(data) // 2, len(data) - 1):
        flipped = bytearray(data)
        flipped[pos] ^= 0x10
        poisons.append(bytes(flipped))
    for poison in poisons:
        with pytest.raises(TraceFormatError):
            loads(poison)


def test_binary_payloads_are_not_interchangeable(sum_loop):
    with pytest.raises(TraceFormatError):
        loads_soa(dumps_trace_binary(sum_loop))
    with pytest.raises(TraceFormatError):
        loads_trace_binary(dumps_soa(TraceSoA(sum_loop.entries)))
