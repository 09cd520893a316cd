"""Cycle-level out-of-order superscalar timing model."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": (
        "MachineConfig",
        "VectorConfig",
        "eight_way",
        "four_way",
        "make_config",
    ),
    ".machine": (
        "Machine",
        "simulate",
    ),
    ".stats": (
        "SimStats",
    ),
})
