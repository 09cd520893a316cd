"""Fault-tolerant fan-out of the experiment grid.

The figure grid is embarrassingly parallel: every (benchmark, width,
ports, mode) point is one independent simulation of its own
:class:`~repro.pipeline.machine.Machine` on its own trace.  This module
resolves a batch of grid points and merges the results back into the
in-process memo of :mod:`repro.experiments.runner`, so the figure
functions afterwards run entirely from memory.

Layering per point, cheapest first:

1. the parent's in-process memo (free);
2. the persistent disk cache — checked *in the parent* so a warm cache
   never even spawns a worker;
3. execution: in-process for ``jobs=1`` (or a single cold point),
   otherwise on ``python -m repro worker`` peers under the
   :class:`~repro.experiments.distributed.DistributedScheduler`, which
   re-check the disk cache in their own process (another peer may race
   it harmlessly: writes are atomic and byte-identical) and simulate on
   miss.

Determinism is the contract: a grid point's result is a pure function of
its coordinates and the simulator sources, so serial, parallel and
cache-hit paths produce identical :class:`~repro.pipeline.stats.SimStats`
— the equivalence tests in ``tests/experiments/test_parallel.py`` and
``tests/experiments/test_backend_parity.py`` pin this.

Fault tolerance is the other contract: one bad point must never cost the
rest of the grid.  Every point is driven under a :class:`FaultPolicy`:

* a task **exception** charges the point one attempt and retries it,
  up to ``max_retries``; a point that keeps failing is **quarantined**
  into ``GridReport.failed`` while the rest of the grid completes;
* a **dead peer** (crash, corrupt frame, heartbeat silence) charges its
  in-flight point a ``node.lost`` attempt, reassigns it and respawns the
  peer; a peer past ``task_timeout`` on one point charges a ``timeout``
  attempt and is recycled (see the scheduler for node strikes and
  quarantine).

Failures are reported per point (:class:`TaskFailure`: kind, error,
attempt count) through :class:`GridReport`, surfaced as
``grid.task_retries`` / ``grid.tasks_failed`` / ``dist.nodes_lost``
metrics when a registry is attached, and propagated by the CLI as a
nonzero exit.  The deterministic fault injector
(:mod:`repro.verify.faults`) drives every one of these paths in
``tests/experiments/test_fault_tolerance.py`` and
``tests/experiments/test_distributed_faults.py``.

Worker count: the ``jobs`` argument, else ``$REPRO_JOBS``, else
``os.cpu_count()``.  ``jobs=1`` runs serially in-process (no peers, same
results).  Zero or negative worker counts are rejected, not clamped.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional

from ..observe import MetricsRegistry, Observer, record_sim_stats
from ..pipeline.stats import SimStats
from ..schemas import error_dict
from . import diskcache, runner

#: default attempt budget beyond the first try (see FaultPolicy).
DEFAULT_MAX_RETRIES = 2


class GridPoint(NamedTuple):
    """One coordinate of the experiment grid (hashable, wire-encodable):
    the fields of :data:`runner.PointKey`, named."""

    name: str
    width: int = 4
    ports: int = 1
    mode: str = "V"
    scale: int = runner.EXPERIMENT_SCALE
    block_on_scalar_operand: bool = True


@dataclass(frozen=True)
class FaultPolicy:
    """How the grid treats a task that fails, hangs or kills its worker.

    ``task_timeout`` is a per-task deadline on the worker peers: a point
    with no result that many seconds after dispatch is charged a
    ``timeout`` attempt and its peer is recycled (the in-process path
    has no process boundary to kill, so it ignores the deadline).
    ``max_retries`` is the attempt budget *beyond* the first try; the
    in-process path backs off exponentially from ``backoff_base``
    capped at ``backoff_cap`` seconds between retries.
    """

    task_timeout: Optional[float] = None
    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))

    @classmethod
    def resolve(
        cls,
        task_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> "FaultPolicy":
        """Policy from arguments, ``$REPRO_TASK_TIMEOUT`` / ``$REPRO_MAX_RETRIES``,
        or the defaults; rejects nonsensical values loudly."""
        if task_timeout is None:
            env = os.environ.get("REPRO_TASK_TIMEOUT")
            if env:
                try:
                    task_timeout = float(env)
                except ValueError:
                    raise ValueError(
                        f"REPRO_TASK_TIMEOUT must be a number, got {env!r}"
                    ) from None
        if max_retries is None:
            env = os.environ.get("REPRO_MAX_RETRIES")
            if env:
                try:
                    max_retries = int(env)
                except ValueError:
                    raise ValueError(
                        f"REPRO_MAX_RETRIES must be an integer, got {env!r}"
                    ) from None
        if max_retries is None:
            max_retries = DEFAULT_MAX_RETRIES
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task timeout must be positive, got {task_timeout}")
        if max_retries < 0:
            raise ValueError(f"max retries must be >= 0, got {max_retries}")
        return cls(task_timeout=task_timeout, max_retries=max_retries)


@dataclass
class TaskFailure:
    """One grid point that could not be computed within its retry budget."""

    point: GridPoint
    #: "error" (the task raised), "timeout" (no result within
    #: ``task_timeout``), "node.lost" (the peers running the point kept
    #: dying under it) or "node.unavailable" (every node slot was
    #: quarantined while the point was still queued).
    kind: str
    error: str      #: last failure's description
    attempts: int   #: attempts charged before quarantine

    def describe(self) -> str:
        p = self.point
        coord = f"{p.name} {p.width}w {p.ports}p {p.mode}"
        return f"{coord}: {self.kind} after {self.attempts} attempt(s) — {self.error}"

    def to_dict(self) -> Dict:
        """The ``repro.error/v1`` object for this quarantined point.

        ``retriable`` is False: the retry budget is already spent, so an
        identical request will fail the same way.  The attempt count
        rides as a kind-specific extra.
        """
        return error_dict(
            self.kind,
            self.error,
            retriable=False,
            point={
                "benchmark": self.point.name,
                "width": self.point.width,
                "ports": self.point.ports,
                "mode": self.point.mode,
                "scale": self.point.scale,
                "block_on_scalar_operand": self.point.block_on_scalar_operand,
            },
            attempts=self.attempts,
        )


@dataclass
class GridReport:
    """Where each point of one :func:`run_grid` batch came from — and
    which points failed, were retried, or lost their peer."""

    requested: int = 0
    unique: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0
    jobs: int = 1
    retries: int = 0
    #: a cooperative cancel signal stopped the batch early; the results
    #: gathered before the stop are still merged (and cached).
    cancelled: bool = False
    failed: List[TaskFailure] = field(default_factory=list)
    #: worker-peer accounting (all zero/empty on the in-process path).
    nodes_lost: int = 0
    points_reassigned: int = 0
    nodes: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every requested point produced a result."""
        return not self.failed

    def summary(self) -> str:
        text = (
            f"grid: {self.requested} points ({self.unique} unique) — "
            f"{self.simulated} simulated, {self.disk_hits} disk-cache hits, "
            f"{self.memo_hits} memo hits [jobs={self.jobs}]"
        )
        if self.retries:
            text += f", {self.retries} retries"
        if self.nodes_lost:
            text += f", {self.nodes_lost} nodes lost"
        if self.points_reassigned:
            text += f", {self.points_reassigned} points reassigned"
        if self.cancelled:
            text += ", CANCELLED early"
        if self.failed:
            text += f" — {len(self.failed)} FAILED"
        return text


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count from the argument, ``$REPRO_JOBS``, or the CPU count.

    A zero or negative count — argument or environment — is a usage
    error and raises ``ValueError`` instead of being silently clamped.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from None
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    if jobs is None:
        jobs = os.cpu_count() or 1
    return jobs


def _worker_run_point(key: GridPoint, want_metrics: bool = False):
    """Compute one grid point, in-process or on a worker peer.

    Returns ``(key, stats-as-dict, simulated_flag, metrics-payload)``;
    the dict forms keep the wire payload decoupled from object
    identity.  ``metrics-payload`` is None unless ``want_metrics`` — it
    then carries the point's full serialized registry (``sim.*``
    counters plus machine-level extras) ready to merge parent-side.
    """
    before = runner.simulations_run()
    observer = Observer(metrics=MetricsRegistry()) if want_metrics else None
    stats = runner.compute_point(tuple(key), observer)
    simulated = runner.simulations_run() > before
    metrics = observer.metrics.to_dict() if want_metrics else None
    return key, diskcache.stats_to_dict(stats), simulated, metrics


def run_grid(
    points: Iterable[GridPoint],
    jobs: Optional[int] = None,
    report: Optional[GridReport] = None,
    metrics: Optional[MetricsRegistry] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    scheduler=None,
    on_result=None,
    cancel=None,
    progress=None,
) -> Dict[GridPoint, SimStats]:
    """Compute every grid point, fanning misses out over worker peers.

    Returns ``{point: master SimStats}`` — treat the values as immutable
    (they are the memo's master copies; :func:`runner.run_point` hands out
    private copies and becomes a memo hit for every point computed here).
    ``report``, when given, is filled with hit/miss accounting.

    ``metrics``, when given, aggregates every point's metrics into one
    registry: worker peers ship their per-point registries back in the
    result frame, cached points replay their persisted payloads, and
    memo hits synthesize ``sim.*`` from the cached stats — so the
    counters sum over the whole grid regardless of where each point came
    from.

    Failures do not propagate: a point that keeps failing (or hanging,
    under ``task_timeout``) is quarantined into ``report.failed`` after
    ``max_retries`` retries and simply absent from the returned dict —
    every other point completes, even when a worker peer dies mid-batch.
    See :class:`FaultPolicy` for the knob semantics (also reachable as
    ``$REPRO_TASK_TIMEOUT`` / ``$REPRO_MAX_RETRIES`` and the CLI's
    ``--task-timeout`` / ``--max-retries``).

    Where cache-cold points run: ``jobs=1``, or a single cold point,
    runs in-process.  Otherwise a
    :class:`~repro.experiments.distributed.DistributedScheduler` with up
    to ``jobs`` worker peers is spawned for this call and closed after
    it.  ``scheduler``, when given, is a caller-owned scheduler that
    runs every cold point — even a single one, the isolation the service
    daemon relies on so a poisoned request can never take down the
    parent — and survives the call; its node count overrides ``jobs``.
    The memo/disk layers above never engage it for a warm cache.

    ``on_result``, when given, is called as ``on_result(point,
    stats_dict)`` for every point **as it completes** — cache hits fire
    immediately, computed points fire from inside the execution engine —
    so a caller (the service's per-point result stream) sees a large
    grid incrementally.  Observer exceptions are swallowed: a broken
    stream must never fail the grid.  ``progress(event, **data)``
    receives the scheduler's point and node events for this batch.

    ``cancel``, when given, is a cooperative stop signal (anything with
    ``is_set()``, e.g. ``threading.Event``): once set, no further points
    are dispatched, the peers running this batch's points are recycled,
    and the batch returns early with ``report.cancelled = True``.
    Points that completed before the stop are merged and cached as
    usual — a later identical grid reuses them.
    """
    points = list(points)
    if report is None:
        report = GridReport()
    report.requested = len(points)
    jobs = scheduler.nodes if scheduler is not None else resolve_jobs(jobs)
    report.jobs = jobs
    policy = FaultPolicy.resolve(task_timeout, max_retries)

    ordered: List[GridPoint] = []
    seen = set()
    for point in points:
        point = GridPoint(*point)
        if point not in seen:
            seen.add(point)
            ordered.append(point)
    report.unique = len(ordered)

    want_metrics = metrics is not None
    results: Dict[GridPoint, SimStats] = {}
    todo: List[GridPoint] = []
    for point in ordered:
        key = tuple(point)
        if runner.memo_contains(key):
            results[point] = runner.memo_get(key)
            report.memo_hits += 1
            if want_metrics:
                record_sim_stats(metrics, results[point])
            if on_result is not None:
                _notify_result(
                    on_result, point, diskcache.stats_to_dict(results[point])
                )
        else:
            todo.append(point)

    # Parent-side disk probe: a fully warm cache never spawns a worker.
    still_cold: List[GridPoint] = []
    for point in todo:
        entry = diskcache.load_stats_entry(runner.point_cache_key(point))
        if entry is not None:
            cached, persisted = entry
            runner.prime_memo(tuple(point), cached)
            results[point] = cached
            report.disk_hits += 1
            if want_metrics:
                if persisted:
                    metrics.merge(persisted)
                record_sim_stats(metrics, cached)
            if on_result is not None:
                _notify_result(on_result, point, diskcache.stats_to_dict(cached))
        else:
            still_cold.append(point)

    if cancel is not None and cancel.is_set():
        report.cancelled = True
        still_cold = []

    if still_cold:
        owned = None
        if scheduler is None and jobs > 1 and len(still_cold) > 1:
            from .distributed.scheduler import DistributedScheduler

            scheduler = owned = DistributedScheduler(min(jobs, len(still_cold)))
        if scheduler is None:
            computed = _execute_serial(
                still_cold, want_metrics, policy, report, on_result, cancel
            )
        else:
            try:
                computed = scheduler.execute(
                    still_cold,
                    policy=policy,
                    report=report,
                    want_metrics=want_metrics,
                    on_result=on_result,
                    cancel=cancel,
                    progress=progress,
                )
            finally:
                if owned is not None:
                    owned.close()
        # Merge in request order, not completion order: gauges merge
        # last-write-wins, so completion order would make the aggregate
        # depend on which worker finished last.
        order = {point: i for i, point in enumerate(still_cold)}
        computed = sorted(
            computed, key=lambda outcome: order.get(outcome[0], len(order))
        )
        for point, payload, simulated, point_metrics in computed:
            stats = diskcache.stats_from_dict(payload)
            runner.prime_memo(tuple(point), stats)
            results[point] = runner.memo_get(tuple(point))
            if simulated:
                report.simulated += 1
            else:
                report.disk_hits += 1
            if want_metrics and point_metrics:
                # The worker-side registry already includes the sim.* shim.
                metrics.merge(point_metrics)

    if want_metrics:
        # Fabric-health counters: only materialized when nonzero, so a
        # clean run's registry stays bit-identical to the pre-fault era.
        if report.retries:
            metrics.counter("grid.task_retries").inc(report.retries)
        if report.failed:
            metrics.counter("grid.tasks_failed").inc(len(report.failed))
        if report.nodes_lost:
            metrics.counter("dist.nodes_lost").inc(report.nodes_lost)
        if report.points_reassigned:
            metrics.counter("dist.points_reassigned").inc(report.points_reassigned)

    return results


def _notify_result(on_result, point, payload) -> None:
    """Deliver one completed point to the streaming observer (if any).

    Observer exceptions are swallowed: a broken result stream must never
    fail — or even retry — the grid computation it is watching.
    """
    if on_result is None:
        return
    try:
        on_result(point, payload)
    except Exception:
        pass


def _execute_serial(
    points, want_metrics, policy, report, on_result=None, cancel=None
) -> List[tuple]:
    """In-process execution with the same retry/quarantine semantics.

    No hang containment here — there is no process boundary to kill —
    so ``task_timeout`` only applies on worker peers.
    """
    outcomes: List[tuple] = []
    for point in points:
        if cancel is not None and cancel.is_set():
            report.cancelled = True
            break
        attempts = 0
        while True:
            try:
                outcome = _worker_run_point(point, want_metrics)
                outcomes.append(outcome)
                _notify_result(on_result, point, outcome[1])
                break
            except Exception as exc:
                attempts += 1
                if attempts > policy.max_retries:
                    report.failed.append(
                        TaskFailure(
                            point, "error",
                            f"{type(exc).__name__}: {exc}", attempts,
                        )
                    )
                    break
                report.retries += 1
                time.sleep(policy.backoff(attempts))
    return outcomes
