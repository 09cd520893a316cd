"""Trace serialization: the disk cache's binary columnar codec.

The timing model is trace-driven, so a serialized trace is a complete,
self-contained simulation input.  The disk cache's ``traces/`` and
``soa/`` sections store traces and their predecodes in one codec:
:func:`dumps_trace_binary` / :func:`loads_trace_binary` and
:func:`dumps_soa` / :func:`loads_soa`.

A payload is one :mod:`marshal` tuple — section tag, format version,
entry count, metadata, then one list per column — compressed with zlib
level 1.  ``marshal`` keeps the Python type of every value (int vs float
vs bool, ``-0.0``, NaN), so floats round-trip exactly, and it decodes at
C speed; the trace decoder rebuilds each :class:`TraceEntry`
positionally through an ``int -> Opcode`` table, so a warm load costs
less than rebuilding the trace.  A version mismatch, a malformed shape,
columns of unequal length and every decode error raise
:class:`TraceFormatError`; the cache treats that as a miss.  The layout
is CPython's own, which is fine for a cache and wrong for interchange.

The :class:`~repro.isa.program.Program` itself is *not* serialized — a
loaded trace carries a stub program that supports exactly what the
timing model needs (``is_backward`` per PC and ``len``).  The payload
records the backward-branch PCs explicitly, so a loaded trace reproduces
``is_backward`` — and therefore every GMRBB-dependent timing statistic —
bit-for-bit.
"""

from __future__ import annotations

import marshal
import zlib
from operator import attrgetter
from typing import List

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.program import Program
from .memory import MemoryImage, MisalignedAccess
from .trace import Trace, TraceEntry, TraceSoA

#: layout versions of the binary payloads (:func:`dumps_trace_binary`,
#: :func:`dumps_soa`).  Bumped whenever a column set or element encoding
#: changes; readers treat any other version as unreadable (the disk cache
#: then rebuilds and rewrites the entry).
TRACE_BINARY_VERSION = 1
SOA_FORMAT_VERSION = 2


class TraceFormatError(Exception):
    """Raised when a payload does not hold a valid serialized trace."""


#: TraceEntry fields in column order (the trace codec rebuilds entries
#: positionally: this must stay TraceEntry's constructor order).
_ENTRY_FIELDS = (
    "seq", "pc", "op", "rd", "rs1", "rs2", "imm",
    "s1", "s2", "value", "addr", "taken", "next_pc",
)


def _backward_pcs(program: Program) -> List[int]:
    return [pc for pc in range(len(program)) if program.is_backward(pc)]


def _stub_program_from_backward(program_len: int, backward: List[int]) -> Program:
    """A program skeleton for the timing model: the payload names every
    backward-control pc, so the skeleton reproduces ``is_backward``
    exactly (a self-targeting jump is backward by definition; everything
    else is NOP)."""
    instructions = [Instruction(Opcode.NOP) for _ in range(max(1, program_len))]
    for pc in backward:
        if type(pc) is not int or not 0 <= pc < len(instructions):
            raise TraceFormatError(f"backward pc {pc} out of range")
        instructions[pc] = Instruction(Opcode.J, target=pc)
    return Program(instructions)


def _assemble(program, entries, memory, int_regs, fp_regs, halted) -> Trace:
    """A :class:`Trace` whose final memory replays the stores over ``memory``."""
    st, fst = Opcode.ST, Opcode.FST
    try:
        initial = MemoryImage(memory)
        final = initial.copy()
        for e in entries:
            op = e.op
            if op is st or op is fst:
                final.store(e.addr, e.value)
    except (MisalignedAccess, TypeError) as exc:
        raise TraceFormatError(f"bad memory image: {exc}") from exc
    return Trace(
        program=program,
        entries=entries,
        initial_memory=initial,
        final_memory=final,
        final_int_regs=list(int_regs),
        final_fp_regs=list(fp_regs),
        halted=halted,
    )


# ---------------------------------------------------------------------------
# Binary columnar codec (the disk cache's ``traces`` and ``soa`` sections)
# ---------------------------------------------------------------------------

#: opcode number -> Opcode, for the positional entry rebuild.
_OPCODES = {int(op): op for op in Opcode}


def _pack(tag: str, version: int, n: int, meta: tuple, columns) -> bytes:
    """One marshal tuple ``(tag, version, n, meta, *columns)``, zlib level 1."""
    return zlib.compress(marshal.dumps((tag, version, n, meta, *columns)), 1)


def _unpack(data: bytes, tag: str, version: int, width: int):
    """``(meta, columns)`` of a :func:`_pack` payload.

    Checks the tag, the version, the column count and that every column
    is a list of exactly ``n`` values (``zip``/``map`` over the columns
    would silently truncate a short one); anything else, and every
    decompression or unmarshalling error, raises :class:`TraceFormatError`.
    """
    try:
        payload = marshal.loads(zlib.decompress(data))
    except (zlib.error, EOFError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"undecodable {tag} payload: {exc}") from exc
    if type(payload) is not tuple or len(payload) != 4 + width or payload[0] != tag:
        raise TraceFormatError(f"not a {tag} payload")
    if type(payload[1]) is not int or payload[1] != version:
        raise TraceFormatError(f"unsupported {tag} format {payload[1]!r}")
    n, meta, columns = payload[2], payload[3], payload[4:]
    if type(n) is not int or not all(type(c) is list and len(c) == n for c in columns):
        raise TraceFormatError(f"{tag} columns disagree in length")
    return meta, columns


def dumps_trace_binary(trace: Trace) -> bytes:
    """Serialize ``trace`` to the binary columnar payload (disk cache)."""
    entries = trace.entries
    columns = [list(map(attrgetter(name), entries)) for name in _ENTRY_FIELDS]
    columns[2] = list(map(int, columns[2]))  # Opcode -> its number
    meta = (
        trace.halted,
        len(trace.program),
        _backward_pcs(trace.program),
        dict(trace.initial_memory.items()),
        list(trace.final_int_regs),
        list(trace.final_fp_regs),
    )
    return _pack("trace", TRACE_BINARY_VERSION, len(entries), meta, columns)


def loads_trace_binary(data: bytes) -> Trace:
    """Deserialize a trace written by :func:`dumps_trace_binary`."""
    meta, columns = _unpack(data, "trace", TRACE_BINARY_VERSION, len(_ENTRY_FIELDS))
    if (
        type(meta) is not tuple
        or len(meta) != 6
        or type(meta[0]) is not bool
        or type(meta[1]) is not int
        or not all(type(part) is t for part, t in zip(meta[2:], (list, dict, list, list)))
    ):
        raise TraceFormatError("bad trace metadata")
    halted, program_len, backward, memory, int_regs, fp_regs = meta
    seqs, pcs, ops, *rest = columns
    try:
        ops = list(map(_OPCODES.__getitem__, ops))
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(f"bad opcode column: {exc}") from exc
    entries = list(map(TraceEntry, seqs, pcs, ops, *rest))
    program = _stub_program_from_backward(program_len, backward)
    return _assemble(program, entries, memory, int_regs, fp_regs, halted)


def dumps_soa(soa: TraceSoA) -> bytes:
    """Serialize a :class:`TraceSoA` predecode to the binary columnar payload.

    Every column is integral or boolean and keeps its element types, so
    a warm load hands the run loop exactly the lists a fresh build would.
    """
    columns = [getattr(soa, name) for name in TraceSoA.__slots__]
    return _pack("soa", SOA_FORMAT_VERSION, len(soa.kind), (), columns)


def loads_soa(data: bytes) -> TraceSoA:
    """Deserialize a predecode written by :func:`dumps_soa`.

    Raises :class:`TraceFormatError` for any version mismatch, shape
    disagreement, or undecodable body — the disk cache maps every such
    failure to a miss (rebuild and rewrite).
    """
    _, columns = _unpack(data, "soa", SOA_FORMAT_VERSION, len(TraceSoA.__slots__))
    return TraceSoA.from_columns(dict(zip(TraceSoA.__slots__, columns)))
