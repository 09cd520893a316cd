"""Workload construction: builder DSL, kernels, SPEC95-like benchmarks."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".": (
        "kernels",
    ),
    ".builder": (
        "BuilderError",
        "ProgramBuilder",
    ),
    ".suite": (
        "ALL_BENCHMARKS",
        "SPEC_FP",
        "SPEC_INT",
        "is_fp_benchmark",
    ),
    ".spec95": (
        "DEFAULT_SCALE",
        "build",
        "cached_trace",
    ),
})
