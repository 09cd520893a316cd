"""Stride-distribution analysis (paper §2, Figure 1).

For every static load, consecutive dynamic addresses are differenced and
divided by the element size (8 bytes), exactly as the paper computes its
Figure 1: "the stride is computed dividing the difference of memory
addresses by the size of the accessed data".  The histogram buckets are
element strides 0..9 plus an ``other`` bucket (larger, negative and
non-word strides), normalised over all stride samples.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..functional.trace import Trace
from ..isa.program import WORD_SIZE

#: histogram keys: element strides 0..9 and the catch-all bucket.
STRIDE_BUCKETS = tuple(str(k) for k in range(10)) + ("other",)


def stride_histogram(trace: Trace) -> Dict[str, float]:
    """Fractions of dynamic stride samples per element-stride bucket.

    A *sample* is the address difference between two consecutive dynamic
    instances of the same static load; the first instance of each load
    contributes no sample.  Fractions sum to 1 when any sample exists.
    """
    last_addr: Dict[int, int] = {}
    counts = {key: 0 for key in STRIDE_BUCKETS}
    total = 0
    for entry in trace.entries:
        if not entry.is_load:
            continue
        prev = last_addr.get(entry.pc)
        last_addr[entry.pc] = entry.addr
        if prev is None:
            continue
        delta = entry.addr - prev
        total += 1
        if delta % WORD_SIZE == 0:
            stride = abs(delta) // WORD_SIZE
            if stride <= 9:
                counts[str(stride)] += 1
                continue
        counts["other"] += 1
    if not total:
        return {key: 0.0 for key in STRIDE_BUCKETS}
    return {key: value / total for key, value in counts.items()}


def merge_histograms(histograms: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Arithmetic mean of several stride histograms (suite aggregation)."""
    histograms = list(histograms)
    if not histograms:
        return {key: 0.0 for key in STRIDE_BUCKETS}
    out = {}
    for key in STRIDE_BUCKETS:
        out[key] = sum(h.get(key, 0.0) for h in histograms) / len(histograms)
    return out


def small_stride_fraction(histogram: Dict[str, float], line_words: int = 4) -> float:
    """Fraction of strided samples with stride below the line size.

    The *strided* samples are those of element strides 0..9, so the
    ``other`` bucket counts in neither part of the ratio.  The paper (§2)
    reports this share per suite
    (:data:`repro.experiments.paper_reference.SMALL_STRIDE_FRACTION`): it
    is what makes a wide bus serving a whole line per access pay.
    """
    strided = sum(histogram.get(str(k), 0.0) for k in range(10))
    small = sum(histogram.get(str(k), 0.0) for k in range(line_words))
    return small / strided if strided else 0.0
