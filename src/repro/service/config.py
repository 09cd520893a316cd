"""What the daemon is started with, and the part of start-up that runs
before the daemon's own imports.

This module imports no more than the worker fabric's scheduler, so
``python -m repro serve`` can spawn its worker peers and send their warm
frame (:func:`start_peers`) before it imports the HTTP front, the facade
and every route's modules: the peers' interpreter start-up and trace
building overlap the daemon's imports instead of following them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..experiments.distributed.scheduler import DistributedScheduler, Warmup
from ..experiments.parallel import resolve_jobs
from ..experiments.runner import EXPERIMENT_SCALE


def default_jobs() -> int:
    """Worker peers: ``$REPRO_JOBS``/CPU count, but never below 2.

    The floor matters: with one peer a crash-fault retry waits for its
    respawn, and a single slow request would serialize the whole daemon.
    ``REPRO_JOBS=0`` or negative is a usage error and raises
    ``ValueError`` — the same contract as every other consumer of the
    variable — not a silent reinterpretation as 2.
    """
    return max(2, resolve_jobs(None))


@dataclass
class ServiceConfig:
    """Everything ``python -m repro serve`` lets you turn."""

    host: str = "127.0.0.1"
    port: int = 8642
    #: worker peers of the shared scheduler (default: max(2, CPUs)).
    jobs: Optional[int] = None
    #: threads draining the async job queue.
    job_workers: int = 2
    #: bounded async admission: queued jobs past this answer 503.
    queue_limit: int = 16
    #: concurrent synchronous requests past this answer 503.
    sync_limit: int = 8
    #: per-request stall/wait bound in seconds (504 past it).
    request_timeout: float = 300.0
    #: retry budget forwarded to the fault-tolerant fabric (None = env/default).
    max_retries: Optional[int] = None
    #: completed jobs kept for polling before eviction.
    job_history: int = 256
    #: benchmarks whose functional traces workers preload at warm-up.
    warm_benchmarks: Tuple[str, ...] = field(default_factory=tuple)
    #: trace preload scale for warm-up.
    warm_scale: int = EXPERIMENT_SCALE


def start_peers(config: ServiceConfig) -> Tuple[DistributedScheduler, Warmup]:
    """Spawn the daemon's worker peers and send their warm frame now.

    Returns the scheduler and its pending warm-up, for
    :class:`~repro.service.server.SimulationService` to take over; the
    caller closes the scheduler if start-up fails before that.
    """
    scheduler = DistributedScheduler(config.jobs or default_jobs())
    return scheduler, scheduler.start_warm(config.warm_benchmarks, config.warm_scale)
