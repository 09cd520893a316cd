"""Experiment harness: one runner per figure of the paper's evaluation."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".parallel": (
        "GridPoint",
        "GridReport",
        "resolve_jobs",
        "run_grid",
    ),
    ".ablations": (
        "confidence_sweep",
        "damping_ablation",
        "register_count_sweep",
        "vector_length_sweep",
    ),
    ".figures": (
        "fig01_stride_distribution",
        "fig03_vectorizable",
        "fig07_scalar_blocking",
        "fig09_offsets",
        "fig10_control_independence",
        "fig11_ipc",
        "fig12_port_occupancy",
        "fig13_wide_bus",
        "fig14_validations",
        "fig15_prediction_accuracy",
        "headline_claims",
    ),
    ".runner": (
        "EXPERIMENT_SCALE",
        "MODES",
        "PORT_COUNTS",
        "label",
        "run_point",
    ),
})
