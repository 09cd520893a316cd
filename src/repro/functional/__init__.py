"""Architectural (functional) simulation: the reference semantics.

The interpreter executes programs and emits dynamic traces; the timing
model (:mod:`repro.pipeline`) replays those traces through cycle-level
structures, and the vectorization engine (:mod:`repro.core`) validates its
speculative results against the trace's architectural values.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".interpreter": (
        "ExecutionError",
        "Interpreter",
        "run_program",
    ),
    ".memory": (
        "MemoryImage",
        "MisalignedAccess",
    ),
    ".semantics": (
        "apply_alu",
        "branch_taken",
        "s64",
    ),
    ".trace": (
        "Trace",
        "TraceEntry",
    ),
    ".traceio": (
        "TraceFormatError",
    ),
})
