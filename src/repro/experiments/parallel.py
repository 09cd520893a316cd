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
``tests/experiments/test_backend_parity.py`` pin this.  Stats are the
only thing a point carries between layers; metrics are derived from them
by the caller (:func:`repro.api.grid`).

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
attempt count) through :class:`GridReport` — whose retry, failure and
node-loss counts are the ``accounting`` of a ``repro.grid/v1`` payload —
and propagated by the CLI as a nonzero exit.  The deterministic fault
injector (:mod:`repro.verify.faults`) drives every one of these paths in
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

from ..pipeline.stats import SimStats
from ..schemas import error_dict
from . import diskcache, runner

#: default attempt budget beyond the first try (see FaultPolicy).
DEFAULT_MAX_RETRIES = 2
#: the in-process path's first retry backoff, doubling up to the cap (s).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0


class GridPoint(NamedTuple):
    """One coordinate of the experiment grid (hashable, wire-encodable):
    the fields of :data:`runner.PointKey`, named.

    ``overrides`` are ``VectorConfig`` field/value pairs set on top of
    the preset (the ablation sweeps); ``()`` keeps the plain point and
    its stats key.
    """

    name: str
    width: int = 4
    ports: int = 1
    mode: str = "V"
    scale: int = runner.EXPERIMENT_SCALE
    block_on_scalar_operand: bool = True
    overrides: runner.Overrides = ()


@dataclass(frozen=True)
class FaultPolicy:
    """How the grid treats a task that fails, hangs or kills its worker.

    ``task_timeout`` is a per-task deadline on the worker peers: a point
    with no result that many seconds after dispatch is charged a
    ``timeout`` attempt and its peer is recycled (the in-process path
    has no process boundary to kill, so it ignores the deadline).
    ``max_retries`` is the attempt budget *beyond* the first try; the
    in-process path backs off exponentially from :data:`BACKOFF_BASE`
    capped at :data:`BACKOFF_CAP` seconds between retries.
    """

    task_timeout: Optional[float] = None
    max_retries: int = DEFAULT_MAX_RETRIES

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task timeout must be positive, got {self.task_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max retries must be >= 0, got {self.max_retries}")


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
        if p.overrides:
            coord += f" {dict(p.overrides)}"
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
            point=runner.describe_point(self.point),
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


def _worker_run_point(key: GridPoint):
    """Compute one grid point, in-process or on a worker peer.

    Returns ``(key, stats-as-dict, simulated_flag)``; the dict form keeps
    the wire payload decoupled from object identity.
    """
    before = runner.simulations_run()
    stats = runner.compute_point(tuple(key))
    simulated = runner.simulations_run() > before
    return key, diskcache.stats_to_dict(stats), simulated


def run_grid(
    points: Iterable[GridPoint],
    jobs: Optional[int] = None,
    report: Optional[GridReport] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    scheduler=None,
    on_result=None,
    cancel=None,
    progress=None,
    with_trace=None,
) -> Dict[GridPoint, SimStats]:
    """Compute every grid point, fanning misses out over worker peers.

    Returns ``{point: master SimStats}`` in request order, without
    duplicates or failed points.  Treat the values as immutable (they are
    the memo's master copies; :func:`runner.run_point` hands out private
    copies and becomes a memo hit for every point computed here).
    ``report``, when given, is filled with hit/miss accounting.

    Failures do not propagate: a point that keeps failing (or hanging,
    under ``task_timeout``) is quarantined into ``report.failed`` after
    ``max_retries`` retries and simply absent from the returned dict —
    every other point completes, even when a worker peer dies mid-batch.
    See :class:`FaultPolicy` for the knob semantics (also reachable as
    the CLI's ``--task-timeout`` / ``--max-retries``).

    Where cache-cold points run: ``jobs=1``, or a single cold point,
    runs in-process, grouped by trace so the process holds one trace
    it loaded at a time.  Otherwise a
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
    ``with_trace(name, scale)``, when given, is called by the in-process
    path once per trace it ran points of, after them and while it still
    holds the trace (for work that reads the trace, such as the Fig 1 /
    Fig 3 analyses); an exception from it is dropped, leaving that work
    to its caller.  Worker peers hold their traces, so the distributed
    path never calls it.

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
    policy = FaultPolicy(task_timeout, DEFAULT_MAX_RETRIES if max_retries is None else max_retries)

    ordered: List[GridPoint] = []
    seen = set()
    for point in points:
        point = GridPoint(*point)
        if point not in seen:
            seen.add(point)
            ordered.append(point)
    report.unique = len(ordered)

    results: Dict[GridPoint, SimStats] = {}
    todo: List[GridPoint] = []
    for point in ordered:
        key = tuple(point)
        if runner.memo_contains(key):
            results[point] = runner.memo_get(key)
            report.memo_hits += 1
            if on_result is not None:
                _notify_result(
                    on_result, point, diskcache.stats_to_dict(results[point])
                )
        else:
            todo.append(point)

    # Parent-side disk probe: a fully warm cache never spawns a worker.
    still_cold: List[GridPoint] = []
    for point in todo:
        cached = diskcache.load_stats_entry(runner.point_cache_key(point))
        if cached is not None:
            runner.prime_memo(tuple(point), cached)
            results[point] = cached
            report.disk_hits += 1
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
                still_cold, policy, report, on_result, cancel, with_trace
            )
        else:
            try:
                computed = scheduler.execute(
                    still_cold,
                    policy=policy,
                    report=report,
                    on_result=on_result,
                    cancel=cancel,
                    progress=progress,
                )
            finally:
                if owned is not None:
                    owned.close()
        for point, payload, simulated in computed:
            runner.prime_memo(tuple(point), diskcache.stats_from_dict(payload))
            results[point] = runner.memo_get(tuple(point))
            if simulated:
                report.simulated += 1
            else:
                report.disk_hits += 1

    # Request order, whichever layer answered each point and in whatever
    # order the peers finished.
    return {point: results[point] for point in ordered if point in results}


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
    points, policy, report, on_result=None, cancel=None, with_trace=None
) -> List[tuple]:
    """In-process execution with the same retry/quarantine semantics.

    The points run grouped by trace, in first-appearance order, and each
    trace this call loaded is released after its group's last point, so
    the process holds one trace at a time; a trace the caller already
    held stays resident.

    No hang containment here — there is no process boundary to kill —
    so ``task_timeout`` only applies on worker peers.
    """
    from ..workloads import spec95

    groups: Dict[tuple, List[GridPoint]] = {}
    for point in points:
        groups.setdefault((point.name, point.scale), []).append(point)
    outcomes: List[tuple] = []
    for trace, group in groups.items():
        with spec95.trace_scope(*trace):
            for point in group:
                if cancel is not None and cancel.is_set():
                    report.cancelled = True
                    return outcomes
                outcome = _run_with_retries(point, policy, report)
                if outcome is not None:
                    outcomes.append(outcome)
                    _notify_result(on_result, point, outcome[1])
            if with_trace is not None:
                try:
                    with_trace(*trace)
                except Exception:
                    pass
    return outcomes


def _run_with_retries(point, policy, report) -> Optional[tuple]:
    """One point's outcome, or None once it is quarantined."""
    attempts = 0
    while True:
        try:
            return _worker_run_point(point)
        except Exception as exc:
            attempts += 1
            if attempts > policy.max_retries:
                report.failed.append(
                    TaskFailure(
                        point, "error",
                        f"{type(exc).__name__}: {exc}", attempts,
                    )
                )
                return None
            report.retries += 1
            time.sleep(min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempts - 1)))
