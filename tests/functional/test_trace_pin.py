"""Functional traces are pinned: the interpreter's output never drifts.

For every benchmark at the experiment scale, ``trace_pins.json`` holds a
digest of each trace entry's field values, each tagged with its Python
type (an int ``3`` and a float ``3.0`` digest differently), and of the
final registers, memory and ``halted``.  The digest reads the
:class:`~repro.functional.trace.Trace` objects directly, not through
``traceio``, so a codec change cannot move it.

Regenerate (only for a deliberate change of the functional semantics)::

    PYTHONPATH=src python -m tests.functional.test_trace_pin --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.functional import run_program
from repro.workloads.spec95 import ALL_BENCHMARKS, build

PIN_SCALE = 12_000
_PIN_FILE = pathlib.Path(__file__).with_name("trace_pins.json")

_ENTRY_FIELDS = (
    "seq", "pc", "op", "rd", "rs1", "rs2", "imm",
    "s1", "s2", "value", "addr", "taken", "next_pc",
)


def _token(value) -> str:
    """``value`` with its type: ``f`` + the exact hex of a float, else the
    type's initial (``i`` int, ``b`` bool, ``O`` Opcode) + the integer."""
    if type(value) is float:
        return "f" + value.hex()
    return f"{type(value).__name__[0]}{int(value)}"


def trace_digest(trace) -> dict:
    """Digests of ``trace``'s entries and of its final architectural state."""
    entries = hashlib.sha256()
    for entry in trace.entries:
        line = ",".join(_token(getattr(entry, name)) for name in _ENTRY_FIELDS)
        entries.update(line.encode() + b"\n")
    final = hashlib.sha256()
    for value in trace.final_int_regs + trace.final_fp_regs:
        final.update(_token(value).encode() + b",")
    for addr, value in sorted(trace.final_memory.items()):
        final.update(f"{addr}:{_token(value)},".encode())
    final.update(_token(trace.halted).encode())
    return {
        "entries": len(trace.entries),
        "entries_sha256": entries.hexdigest(),
        "final_sha256": final.hexdigest(),
    }


def _digest_of(name: str) -> dict:
    return trace_digest(run_program(build(name, PIN_SCALE), max_instructions=PIN_SCALE))


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_trace_matches_pin(name):
    pins = json.loads(_PIN_FILE.read_text())
    assert pins["scale"] == PIN_SCALE
    assert _digest_of(name) == pins["traces"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.functional.test_trace_pin --write")
    document = {
        "scale": PIN_SCALE,
        "traces": {name: _digest_of(name) for name in ALL_BENCHMARKS},
    }
    _PIN_FILE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
