"""Average vector length analysis (paper §4.1).

The paper justifies 4-element vector registers with: "We have chosen
vector registers with 4 elements because the average vector length for
our benchmarks is relatively small: 8.84 for SpecInt and 7.37 for SpecFP
applications."

The *vector length* of a load here is the length of a maximal run of
dynamic instances with a constant stride — i.e. how many elements an
unbounded vector register could have covered before the stride broke.
This module measures that distribution from a functional trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..functional.trace import Trace


@dataclass
class VectorLengthResult:
    """Run-length statistics of constant-stride load sequences."""

    #: lengths of all completed constant-stride runs (>= 2 instances).
    run_lengths: List[int] = field(default_factory=list)

    @property
    def average(self) -> float:
        """Mean run length (the paper's 'average vector length')."""
        if not self.run_lengths:
            return 0.0
        return sum(self.run_lengths) / len(self.run_lengths)

    @property
    def runs(self) -> int:
        return len(self.run_lengths)


def average_vector_length(trace: Trace) -> VectorLengthResult:
    """Measure constant-stride run lengths over every static load.

    A run starts at the second instance of a load (the first stride
    sample) and extends while the stride repeats; a stride change closes
    the run and opens a new one.  Runs of a single sample (stride never
    repeated) count as length 2 — two instances shared one stride — and
    still-open runs are flushed at the end of the trace.
    """
    # pc -> [last_address, stride, current_run_elements]
    state: Dict[int, List[int]] = {}
    result = VectorLengthResult()
    for entry in trace.entries:
        if not entry.is_load:
            continue
        s = state.get(entry.pc)
        if s is None:
            state[entry.pc] = [entry.addr, None, 1]
            continue
        stride = entry.addr - s[0]
        s[0] = entry.addr
        if s[1] is None:
            s[1] = stride
            s[2] = 2
        elif stride == s[1]:
            s[2] += 1
        else:
            result.run_lengths.append(s[2])
            s[1] = stride
            s[2] = 2
    for s in state.values():
        if s[1] is not None:
            result.run_lengths.append(s[2])
    return result
