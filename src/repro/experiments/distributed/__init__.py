"""Distributed, resumable grid execution.

The grid fabric's execution layer: ``python -m repro worker`` peers over
a framed JSON transport with heartbeats, driven by one node-level
scheduler with per-point retry/quarantine and per-node strikes; the
content-addressed disk cache as the cross-node result-exchange medium;
and content-hash campaign manifests making whole sweeps resumable.

See :mod:`.scheduler` (node-loss semantics, concurrent batches),
:mod:`.protocol` / :mod:`.worker` (the wire peer), and :mod:`.campaign`
(resume semantics); docs/PERFORMANCE.md §5 is the prose version.
"""

from .campaign import (
    CampaignManifest,
    CampaignResult,
    campaign_id,
    load_manifest,
    resume_campaign,
    run_campaign,
)
from .scheduler import DistributedScheduler

__all__ = [
    "CampaignManifest",
    "CampaignResult",
    "DistributedScheduler",
    "campaign_id",
    "load_manifest",
    "resume_campaign",
    "run_campaign",
]
