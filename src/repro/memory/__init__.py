"""Memory system: caches, the L1/L2/memory chain, and data-cache ports."""

from .cache import Cache, CacheStats
from .hierarchy import HierarchyConfig, MemoryHierarchy
from .ports import DataPorts, WORDS_PER_LINE

__all__ = [
    "Cache",
    "CacheStats",
    "HierarchyConfig",
    "MemoryHierarchy",
    "DataPorts",
    "WORDS_PER_LINE",
]
