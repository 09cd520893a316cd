"""Memory system: caches, the L1/L2/memory chain, and data-cache ports."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": (
        "Cache",
        "CacheStats",
    ),
    ".hierarchy": (
        "HierarchyConfig",
        "MemoryHierarchy",
    ),
    ".ports": (
        "DataPorts",
        "WORDS_PER_LINE",
    ),
})
