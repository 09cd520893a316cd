"""Binary trace codec round trips and timing-model equivalence."""

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
    dumps_trace_binary,
    loads_soa,
    loads_trace_binary,
)
from repro.pipeline import make_config
from repro.pipeline.machine import Machine

from ..conftest import asm_trace


def test_float_values_roundtrip():
    """Computed floats come back bit-exact (marshal keeps IEEE doubles)."""
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
    loaded = loads_trace_binary(dumps_trace_binary(trace))
    assert loaded.final_memory.load(0x1000) == 0.1 + 2.5
    for a, b in zip(trace.entries, loaded.entries):
        assert a.s1 == b.s1 and a.s2 == b.s2 and a.value == b.value


def test_loaded_trace_simulates_identically(sum_loop):
    """A serialized trace is a complete simulation input: cycles and all
    vectorization statistics must match the original exactly."""
    loaded = loads_trace_binary(dumps_trace_binary(sum_loop))
    for mode in ("noIM", "IM", "V"):
        a = Machine(make_config(4, 1, mode), sum_loop).run()
        b = Machine(make_config(4, 1, mode), loaded).run()
        assert dataclasses.asdict(a) == dataclasses.asdict(b), mode


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


@pytest.mark.parametrize(
    "meta",
    [None, (True, 3), (1, 3, [], {}, [], []), (True, 3, [7], {}, [], []),
     (True, 3, [], {3: 1}, [], [])],
    ids=["none", "short", "halted-type", "backward-range", "misaligned-memory"],
)
def test_malformed_trace_metadata_rejected(sum_loop, meta):
    """Metadata of the wrong shape or content is a format error, not a
    TypeError/IndexError from deep inside the decoder."""

    def edit(payload):
        payload[3] = meta

    with pytest.raises(TraceFormatError):
        loads_trace_binary(_repacked(dumps_trace_binary(sum_loop), edit))


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
