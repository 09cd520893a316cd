"""Experiment harness: each figure of the paper's evaluation and each
ablation declared once, as a :class:`FigureSpec` whose grid points and
rows both derive from that declaration."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".parallel": (
        "GridPoint",
        "GridReport",
        "resolve_jobs",
        "run_grid",
    ),
    ".ablations": ("ABLATIONS",),
    ".figures": (
        "FIGURES",
        "FigureSpec",
        "headline_claims",
        "headline_points",
    ),
    ".runner": (
        "EXPERIMENT_SCALE",
        "MODES",
        "PORT_COUNTS",
        "label",
        "run_point",
    ),
})
