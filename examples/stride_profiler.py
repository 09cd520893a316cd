#!/usr/bin/env python3
"""Stride profiling of the SPEC95-like suite (paper §2, Figure 1).

Prints, for each synthetic benchmark and for the SpecInt/SpecFP suite
averages, the distribution of dynamic load strides in elements — the
statistic that motivates the whole mechanism: stride-0 dominates integer
codes (locals, pointers), stride-1 plus unrolled 2/4/8 dominate FP codes,
and almost everything falls below the 4-word line size, which is why a
wide bus plus stride speculation pays off.

Run:  python examples/stride_profiler.py
"""

from repro.analysis import (
    format_table,
    merge_histograms,
    small_stride_fraction,
    stride_histogram,
)
from repro.experiments.paper_reference import STATISTICS
from repro.workloads import ALL_BENCHMARKS, SPEC_FP, SPEC_INT, cached_trace

SCALE = 12_000


def bar(fraction: float, width: int = 24) -> str:
    filled = round(fraction * width)
    return "#" * filled + "." * (width - filled)


def main() -> None:
    histograms = {}
    for name in ALL_BENCHMARKS:
        histograms[name] = stride_histogram(cached_trace(name, SCALE))

    rows = []
    for name in ALL_BENCHMARKS:
        h = histograms[name]
        rows.append(
            [name]
            + [f"{h[str(k)]:.0%}" for k in range(5)]
            + [f"{h['other']:.0%}", f"{small_stride_fraction(h):.0%}"]
        )
    print("Per-benchmark stride distribution (element strides):")
    print(format_table(
        ["benchmark", "0", "1", "2", "3", "4", "other", "<line"], rows
    ))
    print()

    print("Suite averages (Figure 1 of the paper):")
    for label, suite, names in (("SpecInt", "int", SPEC_INT), ("SpecFP", "fp", SPEC_FP)):
        merged = merge_histograms(histograms[n] for n in names)
        print(f"\n  {label}:")
        for k in [str(i) for i in range(10)] + ["other"]:
            print(f"    stride {k:>5}: {bar(merged[k])} {merged[k]:6.1%}")
        paper = STATISTICS[f"small_strides_{suite}"].paper
        print(f"    strided loads below the 4-word line: "
              f"{small_stride_fraction(merged):.1%} (paper: {paper:.1%})")


if __name__ == "__main__":
    main()
