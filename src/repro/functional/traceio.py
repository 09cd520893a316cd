"""Trace serialization: a binary codec for the disk cache, text for export.

The timing model is trace-driven, so a serialized trace is a complete,
self-contained simulation input — useful for regression fixtures (pin a
trace, assert cycle counts), for sharing a misbehaving workload without
its generator, and for offline analysis in other tools.

**Binary columnar codec** (the disk cache's ``traces/`` and ``soa/``
sections): :func:`dumps_trace_binary` / :func:`loads_trace_binary` and
:func:`dumps_soa` / :func:`loads_soa`.  A payload is one :mod:`marshal`
tuple — section tag, format version, entry count, then one list per
column — compressed with zlib level 1.  ``marshal`` keeps the Python type
of every value (int vs float vs bool, ``-0.0``, NaN) and decodes at C
speed, and the trace decoder rebuilds each :class:`TraceEntry`
positionally through an ``int -> Opcode`` table, so a warm load costs
less than rebuilding the trace.  A version mismatch, a malformed shape,
columns of unequal length and every decode error raise
:class:`TraceFormatError`; the cache treats that as a miss.  The layout
is CPython's own, which is fine for a cache and wrong for interchange.

**Text formats** (export; :func:`dump_trace` / :func:`load_trace`).
Format 3 (written by default) is packed and compressed:

* line 1 — plain-JSON header: format version, entry count, halted flag,
  program listing length, backward-branch PCs;
* line 2 — one Base85 line holding the zlib-compressed JSON *body*:
  initial memory image, final register state, and the trace entries as
  thirteen parallel per-field columns (columnar layout compresses far
  better than row-major: every column is near-constant or slowly
  varying).

Formats 1 and 2 (legacy, row-major JSON-lines: header, memory, registers,
then one positional array per entry) remain fully readable, and
:func:`dump_trace` can still emit format 2 for interoperability.

Floats round-trip exactly in every format (JSON numbers are IEEE doubles,
the same type the simulator computes with, and zlib compression is
lossless).  The :class:`~repro.isa.program.Program` itself is *not*
serialized — a loaded trace carries a stub program that supports exactly
what the timing model needs (``is_backward`` per PC and ``len``).  The
binary codec and text formats 2+ record the backward-branch PCs
explicitly, so a loaded trace reproduces ``is_backward`` — and therefore
every GMRBB-dependent timing statistic — bit-for-bit; format 1 files (no
``backward`` field) reconstruct control-flow direction from the observed
dynamic transfers, which is lossy for branches whose last dynamic
instance fell through.
"""

from __future__ import annotations

import base64
import io
import json
import marshal
import zlib
from operator import attrgetter
from typing import IO, List, Union

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.program import Program
from .memory import MemoryImage, MisalignedAccess
from .trace import Trace, TraceEntry, TraceSoA

FORMAT_VERSION = 3

#: layout versions of the binary payloads (:func:`dumps_trace_binary`,
#: :func:`dumps_soa`).  Bumped whenever a column set or element encoding
#: changes; readers treat any other version as unreadable (the disk cache
#: then rebuilds and rewrites the entry).
TRACE_BINARY_VERSION = 1
SOA_FORMAT_VERSION = 2

#: versions :func:`load_trace` understands.
_READABLE_VERSIONS = (1, 2, 3)

#: versions :func:`dump_trace` can emit (3 = packed, 2 = legacy JSON-lines).
_WRITABLE_VERSIONS = (2, 3)


def pack_json(obj) -> str:
    """Compress a JSON-able object into one newline-free Base85 line.

    Shared by trace format 3 and the disk cache's checkpoint section: the
    payload stays a *text* line (safe for line-oriented files and atomic
    text writes) while costing a fraction of plain JSON on disk.
    """
    raw = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return base64.b85encode(zlib.compress(raw, 6)).decode("ascii")


def unpack_json(text: str):
    """Inverse of :func:`pack_json`; raises ValueError on corrupt input."""
    try:
        raw = zlib.decompress(base64.b85decode(text.strip().encode("ascii")))
        return json.loads(raw.decode("utf-8"))
    except (ValueError, zlib.error, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt packed payload: {exc}") from exc


class TraceFormatError(Exception):
    """Raised when a stream does not hold a valid serialized trace."""


#: TraceEntry fields in column order (format 3 body, legacy row order and
#: the binary codec, which rebuilds entries positionally: this must stay
#: TraceEntry's constructor order).
_ENTRY_FIELDS = (
    "seq", "pc", "op", "rd", "rs1", "rs2", "imm",
    "s1", "s2", "value", "addr", "taken", "next_pc",
)


def _backward_pcs(program: Program) -> List[int]:
    return [pc for pc in range(len(program)) if program.is_backward(pc)]


def _header(trace: Trace, version: int) -> dict:
    return {
        "format": version,
        "entries": len(trace.entries),
        "halted": trace.halted,
        "program_len": len(trace.program),
        "backward": _backward_pcs(trace.program),
    }


def dump_trace(trace: Trace, stream: IO[str], version: int = FORMAT_VERSION) -> None:
    """Serialize ``trace`` to a text stream.

    ``version`` selects the on-disk format: 3 (default) is the packed
    columnar format, 2 the legacy JSON-lines layout.
    """
    if version not in _WRITABLE_VERSIONS:
        raise ValueError(f"cannot write format {version!r}; writable: {_WRITABLE_VERSIONS}")
    stream.write(json.dumps(_header(trace, version)) + "\n")
    if version >= 3:
        columns = [[] for _ in _ENTRY_FIELDS]
        for e in trace.entries:
            row = (
                e.seq, e.pc, int(e.op), e.rd, e.rs1, e.rs2, e.imm,
                e.s1, e.s2, e.value, e.addr, 1 if e.taken else 0, e.next_pc,
            )
            for col, value in zip(columns, row):
                col.append(value)
        body = {
            "memory": {str(addr): value for addr, value in trace.initial_memory.items()},
            "int": trace.final_int_regs,
            "fp": trace.final_fp_regs,
            "cols": columns,
        }
        stream.write(pack_json(body) + "\n")
        return
    stream.write(
        json.dumps({str(addr): value for addr, value in trace.initial_memory.items()})
        + "\n"
    )
    stream.write(
        json.dumps(
            {"int": trace.final_int_regs, "fp": trace.final_fp_regs}
        )
        + "\n"
    )
    for e in trace.entries:
        stream.write(
            json.dumps(
                [
                    e.seq,
                    e.pc,
                    int(e.op),
                    e.rd,
                    e.rs1,
                    e.rs2,
                    e.imm,
                    e.s1,
                    e.s2,
                    e.value,
                    e.addr,
                    1 if e.taken else 0,
                    e.next_pc,
                ]
            )
            + "\n"
        )


def dumps_trace(trace: Trace, version: int = FORMAT_VERSION) -> str:
    """Serialize ``trace`` to a string."""
    buf = io.StringIO()
    dump_trace(trace, buf, version=version)
    return buf.getvalue()


def _stub_program(program_len: int, entries: List[TraceEntry]) -> Program:
    """Reconstruct a program skeleton adequate for the timing model.

    Only control-flow direction matters (GMRBB tracking): any pc observed
    taking a non-JR control transfer is rebuilt as a branch with its
    observed target; everything else becomes NOP.  (Format-1 fallback —
    lossy when a branch's final dynamic instance fell through.)
    """
    instructions = [Instruction(Opcode.NOP) for _ in range(max(1, program_len))]
    for e in entries:
        if e.is_control and e.op is not Opcode.JR:
            instructions[e.pc] = Instruction(
                Opcode(e.op), rs1=0, rs2=0, target=e.next_pc if e.taken else e.pc + 1
            )
        elif e.op is Opcode.JR:
            instructions[e.pc] = Instruction(Opcode.JR, rs1=0)
    return Program(instructions)


def _stub_program_from_backward(program_len: int, backward: List[int]) -> Program:
    """Format-2 stub: the header names every backward-control pc, so the
    skeleton reproduces ``is_backward`` exactly (a self-targeting jump is
    backward by definition; everything else is NOP)."""
    instructions = [Instruction(Opcode.NOP) for _ in range(max(1, program_len))]
    for pc in backward:
        if type(pc) is not int or not 0 <= pc < len(instructions):
            raise TraceFormatError(f"backward pc {pc} out of range")
        instructions[pc] = Instruction(Opcode.J, target=pc)
    return Program(instructions)


def _checked_header(header) -> dict:
    """``header`` if it is a well-formed text-trace header line."""
    if not isinstance(header, dict):
        raise TraceFormatError(f"header is not an object: {type(header).__name__}")
    version = header.get("format")
    if version not in _READABLE_VERSIONS:
        raise TraceFormatError(f"unsupported format {version!r}")
    if (
        type(header.get("entries")) is not int
        or type(header.get("program_len")) is not int
        or type(header.get("halted")) is not bool
        or (version >= 2 and not isinstance(header.get("backward"), list))
    ):
        raise TraceFormatError("malformed header")
    return header


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


def load_trace(stream: IO[str]) -> Trace:
    """Deserialize a trace written by :func:`dump_trace`."""
    try:
        header = json.loads(stream.readline())
    except json.JSONDecodeError as exc:
        raise TraceFormatError("bad header line") from exc
    version = _checked_header(header)["format"]
    entries: List[TraceEntry] = []
    if version >= 3:
        try:
            body = unpack_json(stream.readline())
            memory_line = body["memory"]
            regs_line = {"int": body["int"], "fp": body["fp"]}
            cols = body["cols"]
        except (ValueError, KeyError, TypeError) as exc:
            raise TraceFormatError(f"bad packed body: {exc}") from exc
        if len(cols) != len(_ENTRY_FIELDS) or any(
            len(col) != header["entries"] for col in cols
        ):
            raise TraceFormatError("bad column block")
        (seqs, pcs, ops, rds, rs1s, rs2s, imms,
         s1s, s2s, values, addrs, takens, next_pcs) = cols
        for i in range(header["entries"]):
            entries.append(
                TraceEntry(
                    seq=seqs[i],
                    pc=pcs[i],
                    op=Opcode(ops[i]),
                    rd=rds[i],
                    rs1=rs1s[i],
                    rs2=rs2s[i],
                    imm=imms[i],
                    s1=s1s[i],
                    s2=s2s[i],
                    value=values[i],
                    addr=addrs[i],
                    taken=bool(takens[i]),
                    next_pc=next_pcs[i],
                )
            )
    else:
        memory_line = json.loads(stream.readline())
        regs_line = json.loads(stream.readline())
        for _ in range(header["entries"]):
            row = json.loads(stream.readline())
            if len(row) != 13:
                raise TraceFormatError(f"bad entry row of length {len(row)}")
            entries.append(
                TraceEntry(
                    seq=row[0],
                    pc=row[1],
                    op=Opcode(row[2]),
                    rd=row[3],
                    rs1=row[4],
                    rs2=row[5],
                    imm=row[6],
                    s1=row[7],
                    s2=row[8],
                    value=row[9],
                    addr=row[10],
                    taken=bool(row[11]),
                    next_pc=row[12],
                )
            )
    if version >= 2:
        program = _stub_program_from_backward(header["program_len"], header["backward"])
    else:
        program = _stub_program(header["program_len"], entries)
    return _assemble(
        program,
        entries,
        {int(addr): value for addr, value in memory_line.items()},
        regs_line["int"],
        regs_line["fp"],
        header["halted"],
    )


def loads_trace(text: Union[str, bytes]) -> Trace:
    """Deserialize a trace from a string."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return load_trace(io.StringIO(text))


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
