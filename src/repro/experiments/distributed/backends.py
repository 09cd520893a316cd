"""Pluggable executor backends for the grid fabric.

:func:`repro.experiments.parallel.run_grid` computes cache-cold points
through an :class:`ExecutorBackend`; which one decides *where* the
simulations run:

* :class:`LocalPoolBackend` — today's process-pool fabric (per-call
  pools or a warm shared :class:`~repro.experiments.parallel.WorkerPool`),
  with its retry/quarantine/isolation semantics untouched;
* :class:`SubprocessBackend` — ``python -m repro worker`` peers driven
  by the :class:`~.scheduler.DistributedScheduler` over the framed
  stdin/stdout transport.  The same command line runs unchanged behind
  ``ssh host`` — the transport is just a byte stream — which is the
  intended growth path to true multi-host execution.

Both produce the exact worker-outcome tuples ``(point, stats_dict,
simulated, metrics)`` that the pool path produces, so ``run_grid``'s
merge, memo-priming and accounting code cannot tell them apart — the
backend-parity suite (``tests/experiments/test_backend_parity.py``)
pins bit-identical SimStats across backends.

Selection: pass an instance, or a name (``"local"`` / ``"subprocess"``)
through :func:`resolve_backend`, or set ``$REPRO_BACKEND``.
"""

from __future__ import annotations

import os
from typing import List, Optional

from .. import parallel

BACKEND_NAMES = ("local", "subprocess")

#: environment variable selecting the default backend by name.
BACKEND_ENV = "REPRO_BACKEND"


class ExecutorBackend:
    """Where cache-cold grid points execute.

    ``execute`` consumes a batch and returns worker-outcome tuples;
    failures are quarantined into ``report.failed`` rather than raised.
    Backends may hold live resources (pools, subprocess peers) across
    batches; ``close`` releases them and is idempotent.
    """

    name = "abstract"

    #: effective parallelism, reported as ``GridReport.jobs``.
    jobs = 1

    def execute(
        self,
        points: List["parallel.GridPoint"],
        *,
        policy: "parallel.FaultPolicy",
        report: "parallel.GridReport",
        want_metrics: bool = False,
        on_result=None,
        cancel=None,
    ) -> List[tuple]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalPoolBackend(ExecutorBackend):
    """The in-host process-pool fabric wrapped as a backend."""

    name = "local"

    def __init__(
        self,
        jobs: Optional[int] = None,
        pool: Optional["parallel.WorkerPool"] = None,
    ) -> None:
        self.pool = pool
        self.jobs = pool.jobs if pool is not None else parallel.resolve_jobs(jobs)

    def execute(
        self, points, *, policy, report, want_metrics=False,
        on_result=None, cancel=None,
    ):
        return parallel._execute(
            list(points), self.jobs, want_metrics, policy, report, self.pool,
            on_result=on_result, cancel=cancel,
        )


class SubprocessBackend(ExecutorBackend):
    """``python -m repro worker`` peers over framed stdin/stdout pipes."""

    name = "subprocess"

    def __init__(
        self,
        nodes: int = 2,
        *,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        node_max_strikes: Optional[int] = None,
        python: Optional[str] = None,
        progress=None,
    ) -> None:
        from .scheduler import (
            DEFAULT_HEARTBEAT_INTERVAL,
            DEFAULT_HEARTBEAT_TIMEOUT,
            DEFAULT_NODE_MAX_STRIKES,
            DistributedScheduler,
        )

        self.jobs = self.nodes = nodes
        self.scheduler = DistributedScheduler(
            nodes,
            heartbeat_interval=(
                DEFAULT_HEARTBEAT_INTERVAL
                if heartbeat_interval is None else heartbeat_interval
            ),
            heartbeat_timeout=(
                DEFAULT_HEARTBEAT_TIMEOUT
                if heartbeat_timeout is None else heartbeat_timeout
            ),
            node_max_strikes=(
                DEFAULT_NODE_MAX_STRIKES
                if node_max_strikes is None else node_max_strikes
            ),
            python=python,
            progress=progress,
        )

    def execute(
        self, points, *, policy, report, want_metrics=False,
        on_result=None, cancel=None,
    ):
        return self.scheduler.execute(
            list(points), policy=policy, report=report,
            want_metrics=want_metrics, on_result=on_result, cancel=cancel,
        )

    def close(self) -> None:
        self.scheduler.close()


def resolve_backend(
    spec=None,
    *,
    jobs: Optional[int] = None,
    pool: Optional["parallel.WorkerPool"] = None,
) -> ExecutorBackend:
    """Backend from an instance, a name, ``$REPRO_BACKEND``, or the default.

    ``jobs`` seeds the local backend's worker count or the subprocess
    backend's node count (subprocess defaults to 2 nodes — a node is a
    host stand-in, not a core).
    """
    if isinstance(spec, ExecutorBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or "local"
    if spec == "local":
        return LocalPoolBackend(jobs=jobs, pool=pool)
    if spec == "subprocess":
        return SubprocessBackend(nodes=jobs if jobs else 2)
    raise ValueError(
        f"unknown executor backend {spec!r}; one of {BACKEND_NAMES}"
    )
