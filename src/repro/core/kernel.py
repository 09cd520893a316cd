"""Batched execution kernels: the data-parallel math behind the vector datapath.

The vector engine (:mod:`repro.core.engine`) and the vector register file
(:mod:`repro.core.vector_regfile`) collect work into parallel lists
(operand values, predicted addresses, source-ready times) and evaluate
each group with *one* call here instead of element by element.  Every
ALU result comes from the same :func:`~repro.functional.semantics.apply_alu`
the functional interpreter uses, so the vector datapath cannot drift from
the architectural semantics.
"""

from __future__ import annotations

from typing import List, Sequence

from ..functional.semantics import apply_alu


def pred_addrs(base: int, stride: int, n: int) -> List[int]:
    """Predicted element addresses for a strided load register."""
    return [base + k * stride for k in range(n)]


def range_hits(addr: int, firsts: Sequence[int], lasts: Sequence[int]) -> List[int]:
    """Indices whose [first, last] address range covers ``addr`` (§3.6)."""
    return [i for i in range(len(firsts)) if firsts[i] <= addr <= lasts[i]]


def alu_values(op, a: Sequence, b: Sequence) -> List:
    """Element-wise ALU results for one opcode group."""
    return [apply_alu(op, x, y) for x, y in zip(a, b)]


def issue_slots(ready: Sequence[int], floor: int) -> List[int]:
    """Pipelined issue recurrence: element ``k`` issues at
    ``max(prev_issue + 1, floor, ready[k])`` (one element per cycle
    through one FU, never before its sources or the pipe opens)."""
    out = []
    prev = floor - 1
    for r in ready:
        prev = prev + 1 if prev + 1 > r else r
        out.append(prev)
    return out
