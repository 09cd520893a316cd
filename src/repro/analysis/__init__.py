"""Trace analyses (Figures 1 and 3) and report formatting."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".reports": (
        "format_table",
        "mean",
        "percent",
        "suite_rows",
    ),
    ".stride_profile": (
        "STRIDE_BUCKETS",
        "merge_histograms",
        "small_stride_fraction",
        "stride_histogram",
    ),
    ".vectorizability": (
        "VectorizabilityResult",
        "vectorizable_fraction",
    ),
    ".vector_length": (
        "VectorLengthResult",
        "average_vector_length",
    ),
})
