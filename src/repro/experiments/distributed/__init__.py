"""Distributed grid execution.

The grid fabric's execution layer: ``python -m repro worker`` peers over
a framed JSON transport with heartbeats, driven by one node-level
scheduler with per-point retry/quarantine and per-node strikes, and the
content-addressed disk cache as the cross-node result-exchange medium.
The same cache makes a killed sweep restartable: rerun it, and every
point that finished is a disk hit.

See :mod:`.scheduler` (node-loss semantics, concurrent batches) and
:mod:`.protocol` / :mod:`.worker` (the wire peer); docs/PERFORMANCE.md
§5 is the prose version.
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".scheduler": (
        "DistributedScheduler",
    ),
})
