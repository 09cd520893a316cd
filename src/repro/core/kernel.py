"""Batched address kernels for the vector datapath.

Two plain functions over parallel lists, called once per group instead of
element by element, whose per-element work runs in C: the vector register
file uses :func:`pred_addrs` for a strided load register's predicted
element addresses and :func:`range_hits` for the §3.6 store check against
every indexed load range.  Vector ALU elements are not evaluated here: the engine's
:meth:`~repro.core.engine.VectorizationEngine.tick` computes each
element's value when it schedules it, with the opcode's callable from
:func:`~repro.functional.semantics.apply_alu`'s dispatch table.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import and_, ge, le
from typing import List, Sequence


def pred_addrs(base: int, stride: int, n: int) -> List[int]:
    """Predicted element addresses for a strided load register."""
    if not stride:
        return [base] * n
    return list(range(base, base + n * stride, stride))


def range_hits(addr: int, firsts: Sequence[int], lasts: Sequence[int]) -> List[int]:
    """Indices whose [first, last] address range covers ``addr`` (§3.6).

    The compares run element-wise inside ``map`` over the ``operator``
    functions, so a range costs no interpreted bytecode."""
    point = repeat(addr)
    covered = map(and_, map(le, firsts, point), map(ge, lasts, point))
    return list(compress(range(len(firsts)), covered))
