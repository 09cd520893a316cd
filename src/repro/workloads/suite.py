"""The benchmark suite: its names and their SpecInt95 / SpecFP95 split.

Kept apart from the program generators of :mod:`.spec95` so that code
which only names benchmarks — argument checks, a figure's row order, a
warm ``run`` answered from the disk cache — loads neither the program
builder nor the interpreter.
"""

from __future__ import annotations

from typing import Tuple

SPEC_INT: Tuple[str, ...] = (
    "go",
    "m88ksim",
    "gcc",
    "compress",
    "li",
    "ijpeg",
    "perl",
    "vortex",
)
SPEC_FP: Tuple[str, ...] = ("swim", "applu", "turb3d", "fpppp")
ALL_BENCHMARKS: Tuple[str, ...] = SPEC_INT + SPEC_FP


def is_fp_benchmark(name: str) -> bool:
    """True for the SpecFP95 members."""
    return name in SPEC_FP
