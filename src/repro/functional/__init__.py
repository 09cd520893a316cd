"""Architectural (functional) simulation: the reference semantics.

The interpreter executes programs and emits dynamic traces; the timing
model (:mod:`repro.pipeline`) replays those traces through cycle-level
structures, and the vectorization engine (:mod:`repro.core`) validates its
speculative results against the trace's architectural values.
"""

from .interpreter import ExecutionError, Interpreter, run_program
from .memory import MemoryImage, MisalignedAccess
from .semantics import apply_alu, branch_taken, s64
from .trace import Trace, TraceEntry
from .traceio import TraceFormatError

__all__ = [
    "ExecutionError",
    "Interpreter",
    "run_program",
    "MemoryImage",
    "MisalignedAccess",
    "apply_alu",
    "branch_taken",
    "s64",
    "Trace",
    "TraceEntry",
    "TraceFormatError",
]
