"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

#: a tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10


class Tail(NamedTuple):
    value: float
    #: the percentile actually reported (99 when the samples allow it).
    percentile: float
    samples: int
    beyond: int


def tail(values: Sequence[float], want: float = 99.0) -> Tail:
    """The highest percentile up to ``want`` with ``TAIL_BEYOND`` samples beyond it.

    Percentiles are nearest-rank: the p-th percentile of n sorted samples
    is the ``ceil(p/100 * n)``-th, with ``n - ceil(p/100 * n)`` samples
    beyond it.  With ``TAIL_BEYOND`` or fewer samples no percentile
    qualifies; the maximum is reported and labelled as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, n, 0)
    percentile = min(want, 100.0 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(round(percentile / 100.0 * n, 9))
    return Tail(ordered[rank - 1], percentile, n, n - rank)
