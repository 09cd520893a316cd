"""Fault-tolerant process-pool fan-out for the experiment grid.

The figure grid is embarrassingly parallel: every (benchmark, width,
ports, mode) point is one independent simulation of its own
:class:`~repro.pipeline.machine.Machine` on its own trace.  This module
fans a batch of grid points out over a
:class:`concurrent.futures.ProcessPoolExecutor` and merges the results
back into the in-process memo of :mod:`repro.experiments.runner`, so the
figure functions afterwards run entirely from memory.

Layering per point, cheapest first:

1. the parent's in-process memo (free);
2. the persistent disk cache — checked *in the parent* so a warm cache
   never even spawns the pool;
3. a pool worker, which re-checks the disk cache in its own process
   (another worker may race it harmlessly: writes are atomic and
   byte-identical) and simulates on miss.

Determinism is the contract: a grid point's result is a pure function of
its coordinates and the simulator sources, so serial, parallel and
cache-hit paths produce identical :class:`~repro.pipeline.stats.SimStats`
— the equivalence tests in ``tests/experiments/test_parallel.py`` pin
this.

Fault tolerance is the other contract: one bad point must never cost the
rest of the grid.  Every point is submitted as its own future and driven
under a :class:`FaultPolicy`:

* a worker **exception** charges the point one attempt and retries it
  with capped exponential backoff, up to ``max_retries``; a point that
  keeps failing is **quarantined** into ``GridReport.failed`` while the
  rest of the grid completes;
* a **hung** task is detected when no future completes within
  ``task_timeout`` seconds: queued futures are requeued uncharged, the
  stuck ones are charged a ``timeout`` attempt, and the pool (whose
  workers may be wedged) is killed and respawned;
* a **broken pool** (a worker died — ``BrokenProcessPool``) salvages
  every already-completed result and respawns the pool for the remainder;
  after two consecutive breaks the fabric switches to *isolation mode* —
  one point per single-worker pool — so the crashing point indicts only
  itself, is retried/quarantined like any other failure, and pooled mode
  resumes once it is identified;
* if pools are **unavailable** entirely (no ``sem_open``/fork), execution
  degrades to in-process serial with the same retry/quarantine handling
  (``GridReport.degraded_serial``).

Failures are reported per point (:class:`TaskFailure`: kind, error,
attempt count) through :class:`GridReport`, surfaced as
``grid.task_retries`` / ``grid.tasks_failed`` / ``grid.pool_restarts``
metrics when a registry is attached, and propagated by the CLI as a
nonzero exit.  The deterministic fault injector
(:mod:`repro.verify.faults`) drives every one of these paths in
``tests/experiments/test_fault_tolerance.py``.

Worker count: the ``jobs`` argument, else ``$REPRO_JOBS``, else
``os.cpu_count()``.  ``jobs=1`` runs serially in-process (no pool, same
results).  Zero or negative worker counts are rejected, not clamped.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..observe import MetricsRegistry, Observer, record_sim_stats
from ..pipeline.stats import SimStats
from ..schemas import error_dict
from . import diskcache, runner

#: default attempt budget beyond the first try (see FaultPolicy).
DEFAULT_MAX_RETRIES = 2

#: consecutive pool breaks before switching to isolation mode.
_ISOLATE_AFTER_BREAKS = 2


class GridPoint(NamedTuple):
    """One coordinate of the experiment grid (hashable, pool-picklable).

    ``sampling`` is None for an exact run or a ``(window, interval)``
    tuple for a sampled one — the same tail coordinate
    :data:`runner.PointKey` carries.
    """

    name: str
    width: int = 4
    ports: int = 1
    mode: str = "V"
    scale: int = runner.EXPERIMENT_SCALE
    block_on_scalar_operand: bool = True
    sampling: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class FaultPolicy:
    """How the grid treats a task that fails, hangs or kills its worker.

    ``task_timeout`` is a *stall* timeout: it fires when no task in the
    batch completes for that many seconds, which bounds a hung simulation
    without per-task clocks (a busy healthy grid keeps resetting it).
    ``max_retries`` is the attempt budget *beyond* the first try; retries
    back off exponentially from ``backoff_base`` capped at
    ``backoff_cap`` seconds.
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
    #: "error" | "timeout" | "crash" for in-host failures; distributed
    #: backends add the node-level kinds "node.lost" (the point's host
    #: peers kept dying under it) and "node.unavailable" (every node
    #: slot quarantined while the point was still queued).
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
                "sampling": list(self.point.sampling) if self.point.sampling else None,
            },
            attempts=self.attempts,
        )


@dataclass
class GridReport:
    """Where each point of one :func:`run_grid` batch came from — and
    which points failed, were retried, or broke the pool."""

    requested: int = 0
    unique: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0
    jobs: int = 1
    retries: int = 0
    pool_restarts: int = 0
    degraded_serial: bool = False
    #: a cooperative cancel signal stopped the batch early; the results
    #: gathered before the stop are still merged (and cached).
    cancelled: bool = False
    failed: List[TaskFailure] = field(default_factory=list)
    #: distributed-backend accounting (all zero/empty on the pool path).
    nodes_lost: int = 0
    points_reassigned: int = 0
    resume_skipped: int = 0
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
        if self.pool_restarts:
            text += f", {self.pool_restarts} pool restarts"
        if self.nodes_lost:
            text += f", {self.nodes_lost} nodes lost"
        if self.points_reassigned:
            text += f", {self.points_reassigned} points reassigned"
        if self.resume_skipped:
            text += f", {self.resume_skipped} resumed from cache"
        if self.degraded_serial:
            text += ", degraded to serial"
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


def _worker_warmup(benchmarks: Tuple[str, ...], scale: int):
    """Pool warm-up task: pay the import + trace-load cost up front.

    Importing the simulator packages and materializing the functional
    traces (disk-cached, predecoded) dominates a cold worker's first
    task; running this once per worker moves that cost to service
    start-up so request latency measures simulation, not imports.
    Returns the worker pid so callers can count distinct warmed workers.
    """
    from ..workloads.spec95 import cached_trace

    for name in benchmarks:
        cached_trace(name, scale)
    return os.getpid()


class WorkerPool:
    """A warm, reusable :class:`ProcessPoolExecutor` shared across grids.

    Per-call pools (the default :func:`run_grid` path) pay process
    spawn + interpreter import for every batch; a long-running caller —
    the service daemon above all — instead keeps one ``WorkerPool`` and
    passes it to every :func:`run_grid`, which then draws its executor
    from here and *returns it warm* instead of shutting it down.

    Fault semantics are unchanged: when a batch marks the pool broken
    (worker death, stall past ``task_timeout``) the driver calls
    :meth:`discard`, which terminates the wreck and lets the next
    :meth:`executor` call respawn lazily (counted in ``restarts``);
    retry/quarantine/isolation logic in :func:`_execute_pool` runs
    exactly as for owned pools — isolation mode always builds its own
    throwaway single-worker pools so a crasher can never poison the
    shared one while being indicted.

    Thread-safe: concurrent grids may share one pool (submissions
    interleave; each driver waits only on its own futures).  A driver
    that discards the shared pool mid-flight merely forces the others
    onto the respawn path — their futures surface ``BrokenExecutor`` and
    are retried under the normal policy.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        #: worker count, resolved once (argument / $REPRO_JOBS / CPUs).
        self.jobs = resolve_jobs(jobs)
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        #: pools discarded after breaking (monitoring surface).
        self.restarts = 0
        self._spawned = 0

    def executor(self) -> ProcessPoolExecutor:
        """The live shared pool, spawning it on first use / after a discard."""
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
                self._spawned += 1
                if self._spawned > 1:
                    self.restarts += 1
            return self._pool

    def discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop (and terminate) a broken executor obtained from here.

        Identity-checked so two drivers hitting the same break only
        discard once, and a driver holding a stale handle cannot kill a
        healthy respawn.
        """
        with self._lock:
            mine = pool is self._pool
            if mine:
                self._pool = None
        if mine:
            _abort_pool(pool)

    def warm(
        self,
        benchmarks: Iterable[str] = (),
        scale: int = runner.EXPERIMENT_SCALE,
        timeout: Optional[float] = 60.0,
    ) -> int:
        """Spin every worker up now (imports + optional trace preload).

        Submits one warm-up task per worker slot and waits up to
        ``timeout`` seconds; returns how many distinct workers reported
        in (0 when pools are unavailable — callers degrade gracefully).
        """
        names = tuple(benchmarks)
        try:
            pool = self.executor()
            futures = [
                pool.submit(_worker_warmup, names, scale) for _ in range(self.jobs)
            ]
            done, _ = wait(futures, timeout=timeout)
            return len({future.result() for future in done})
        except Exception:
            return 0

    def shutdown(self) -> None:
        """Tear the shared pool down (idempotent; a later use respawns)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def _worker_run_point(key: GridPoint, want_metrics: bool = False):
    """Pool entry point: compute one grid point in a worker process.

    Returns ``(key, stats-as-dict, simulated_flag, metrics-payload)``;
    the dict forms keep the pickled payload decoupled from object
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
    pool: Optional[WorkerPool] = None,
    backend=None,
    on_result=None,
    cancel=None,
) -> Dict[GridPoint, SimStats]:
    """Compute every grid point, fanning misses out over a process pool.

    Returns ``{point: master SimStats}`` — treat the values as immutable
    (they are the memo's master copies; :func:`runner.run_point` hands out
    private copies and becomes a memo hit for every point computed here).
    ``report``, when given, is filled with hit/miss accounting.

    ``metrics``, when given, aggregates every point's metrics into one
    registry: pool workers ship their per-point registries back across
    the pickle boundary, cached points replay their persisted payloads,
    and memo hits synthesize ``sim.*`` from the cached stats — so the
    counters sum over the whole grid regardless of where each point came
    from.

    Failures do not propagate: a point that keeps failing (or hanging,
    under ``task_timeout``) is quarantined into ``report.failed`` after
    ``max_retries`` retries and simply absent from the returned dict —
    every other point completes and is salvaged even when a worker
    crash breaks the pool mid-batch.  See :class:`FaultPolicy` for the
    knob semantics (also reachable as ``$REPRO_TASK_TIMEOUT`` /
    ``$REPRO_MAX_RETRIES`` and the CLI's ``--task-timeout`` /
    ``--max-retries``).

    ``pool``, when given, is a shared :class:`WorkerPool` drawn from
    instead of spawning (and tearing down) a per-call executor; its
    worker count also overrides ``jobs``.  With a pool attached, even a
    *single* cold point runs in a worker process — the isolation the
    service daemon relies on so a poisoned request can never take down
    the parent — where the default path would run it serially in-process.

    ``backend`` swaps the execution layer for cache-cold points
    entirely: an :class:`repro.experiments.distributed.ExecutorBackend`
    instance (caller-owned — survives across calls), or a backend name
    (``"local"`` / ``"subprocess"``, resolved and closed per call).
    The memo/disk layers above are backend-agnostic, so a warm cache
    never engages the backend at all.

    ``on_result``, when given, is called as ``on_result(point,
    stats_dict)`` for every point **as it completes** — cache hits fire
    immediately, computed points fire from inside the execution engine —
    so a caller (the service's per-point result stream) sees a large
    grid incrementally.  Observer exceptions are swallowed: a broken
    stream must never fail the grid.

    ``cancel``, when given, is a cooperative stop signal (anything with
    ``is_set()``, e.g. ``threading.Event``): once set, no further points
    are dispatched, queued pool futures are cancelled, distributed peers
    are torn down, and the batch returns early with
    ``report.cancelled = True``.  Points that completed before the stop
    are merged and cached as usual — a later identical grid reuses them.
    """
    points = list(points)
    if report is None:
        report = GridReport()
    report.requested = len(points)
    backend_obj = owned_backend = None
    if backend is not None:
        from .distributed.backends import ExecutorBackend, resolve_backend

        if isinstance(backend, ExecutorBackend):
            backend_obj = backend
        else:
            backend_obj = owned_backend = resolve_backend(
                backend, jobs=jobs, pool=pool
            )
        jobs = backend_obj.jobs
    elif pool is not None:
        jobs = pool.jobs
    else:
        jobs = resolve_jobs(jobs)
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

    # Parent-side disk probe: a fully warm cache never spawns the pool.
    still_cold: List[GridPoint] = []
    for point in todo:
        config = runner.point_config(
            point.width, point.ports, point.mode, point.block_on_scalar_operand
        )
        sampling = runner.sampling_from_key(point.sampling)
        entry = diskcache.load_stats_entry(
            diskcache.stats_key(
                point.name,
                point.scale,
                0,
                config,
                sampling.fingerprint() if sampling is not None else None,
            )
        )
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
        try:
            if backend_obj is not None:
                extra = {}
                if on_result is not None:
                    extra["on_result"] = on_result
                if cancel is not None:
                    extra["cancel"] = cancel
                computed = backend_obj.execute(
                    still_cold,
                    policy=policy,
                    report=report,
                    want_metrics=want_metrics,
                    **extra,
                )
            else:
                computed = _execute(
                    still_cold, jobs, want_metrics, policy, report, pool,
                    on_result=on_result, cancel=cancel,
                )
        finally:
            if owned_backend is not None:
                owned_backend.close()
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

    if owned_backend is not None:
        owned_backend.close()  # idempotent; also closed on the error path

    if want_metrics:
        # Fabric-health counters: only materialized when nonzero, so a
        # clean run's registry stays bit-identical to the pre-fault era.
        if report.retries:
            metrics.counter("grid.task_retries").inc(report.retries)
        if report.failed:
            metrics.counter("grid.tasks_failed").inc(len(report.failed))
        if report.pool_restarts:
            metrics.counter("grid.pool_restarts").inc(report.pool_restarts)
        if report.nodes_lost:
            metrics.counter("dist.nodes_lost").inc(report.nodes_lost)
        if report.points_reassigned:
            metrics.counter("dist.points_reassigned").inc(report.points_reassigned)

    return results


# ---------------------------------------------------------------------------
# The fault-isolating execution engine
# ---------------------------------------------------------------------------


class _PoolUnavailable(Exception):
    """Process pools cannot be created in this environment at all."""


#: how often a cancellable pool wait wakes up to poll the stop signal.
_CANCEL_TICK = 0.2


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


def _execute(
    points: List[GridPoint],
    jobs: int,
    want_metrics: bool,
    policy: FaultPolicy,
    report: GridReport,
    pool: Optional[WorkerPool] = None,
    on_result=None,
    cancel=None,
) -> List[tuple]:
    """Compute ``points`` with per-task isolation; failures land in
    ``report.failed``, successes are returned as worker-outcome tuples."""
    outcomes: List[tuple] = []
    attempts: Dict[GridPoint, int] = {point: 0 for point in points}
    work = partial(_worker_run_point, want_metrics=want_metrics)
    remaining = list(points)
    # A shared WorkerPool forces the pool path even for one point: its
    # callers (the service) want process isolation, not just throughput.
    if jobs > 1 and (len(points) > 1 or pool is not None):
        try:
            _execute_pool(
                remaining, jobs, work, policy, attempts, outcomes, report, pool,
                on_result=on_result, cancel=cancel,
            )
            return outcomes
        except _PoolUnavailable:
            # Restricted environments (no sem_open / fork): degrade to
            # serial for whatever the pool did not finish.
            report.degraded_serial = True
            finished = {outcome[0] for outcome in outcomes}
            quarantined = {failure.point for failure in report.failed}
            remaining = [
                point for point in points
                if point not in finished and point not in quarantined
            ]
    _execute_serial(
        remaining, work, policy, attempts, outcomes, report,
        on_result=on_result, cancel=cancel,
    )
    return outcomes


def _execute_serial(
    points, work, policy, attempts, outcomes, report, on_result=None, cancel=None
) -> None:
    """In-process execution with the same retry/quarantine semantics.

    No hang containment here — there is no process boundary to kill —
    so ``task_timeout`` only applies on the pool path.
    """
    for point in points:
        if cancel is not None and cancel.is_set():
            report.cancelled = True
            return
        while True:
            try:
                outcome = work(point)
                outcomes.append(outcome)
                _notify_result(on_result, point, outcome[1])
                break
            except Exception as exc:
                attempts[point] += 1
                if attempts[point] > policy.max_retries:
                    report.failed.append(
                        TaskFailure(
                            point, "error",
                            f"{type(exc).__name__}: {exc}", attempts[point],
                        )
                    )
                    break
                report.retries += 1
                time.sleep(policy.backoff(attempts[point]))


def _execute_pool(
    pending, jobs, work, policy, attempts, outcomes, report, shared=None,
    on_result=None, cancel=None,
) -> None:
    """Pooled execution: per-task futures, broken-pool salvage, isolation.

    ``pending`` is consumed; completed outcomes append to ``outcomes``
    and quarantined points to ``report.failed``.  ``shared``, when
    given, is a :class:`WorkerPool` supplying the executor (kept warm on
    success, discarded on break); isolation mode always owns a fresh
    single-worker pool regardless, so an indicted crasher never executes
    inside the shared pool.
    """
    breaks = 0
    while pending:
        if cancel is not None and cancel.is_set():
            report.cancelled = True
            return
        isolate = breaks >= _ISOLATE_AFTER_BREAKS
        batch = pending[:1] if isolate else list(pending)
        rest = pending[1:] if isolate else []
        workers = 1 if isolate else min(jobs, len(batch))
        owned = isolate or shared is None
        try:
            if owned:
                pool = ProcessPoolExecutor(max_workers=workers)
            else:
                pool = shared.executor()
        except (OSError, ImportError, NotImplementedError) as exc:
            raise _PoolUnavailable(str(exc)) from exc
        try:
            requeue, broke, quarantined_crash = _drive_pool(
                pool, batch, work, policy, attempts, outcomes, report,
                charge_broken=isolate, on_result=on_result, cancel=cancel,
            )
        except (OSError, ImportError) as exc:
            # The pool machinery itself is unusable (semaphores, pipes).
            if owned:
                _abort_pool(pool)
            else:
                shared.discard(pool)
            raise _PoolUnavailable(str(exc)) from exc
        if cancel is not None and cancel.is_set():
            # Cooperative stop: queued futures were cancelled inside
            # _drive_pool; anything still running is abandoned with its
            # pool (a dedicated pool is torn down, a shared one discarded
            # so the stragglers cannot occupy the next request's workers).
            report.cancelled = True
            if owned:
                _abort_pool(pool)
            else:
                shared.discard(pool)
            return
        if broke:
            if owned:
                _abort_pool(pool)
            else:
                shared.discard(pool)
            breaks += 1
            if requeue or rest:
                report.pool_restarts += 1
        elif owned:
            pool.shutdown(wait=True)
        # else: the shared pool stays warm for the next batch/request.
        if quarantined_crash:
            # The crasher is identified and quarantined; give pooled mode
            # another chance for the survivors.
            breaks = 0
        pending = requeue + rest


def _drive_pool(
    pool, batch, work, policy, attempts, outcomes, report, charge_broken=False,
    on_result=None, cancel=None,
):
    """Drive one pool over ``batch``; returns ``(requeue, broke, quarantined_crash)``.

    Transient worker exceptions are retried in-pool with backoff; a
    stall past ``policy.task_timeout`` charges the stuck tasks and
    requeues the queued ones; a dead worker (``BrokenExecutor``) marks
    the pool broken — in isolation mode (``charge_broken``) the single
    in-flight point is charged as a ``crash`` attempt, otherwise the
    unfinished points are requeued uncharged for the next pool.

    With ``cancel`` given, the wait loop wakes every ``_CANCEL_TICK``
    seconds to poll the stop signal; on cancellation, futures that have
    not started yet are cancelled (skipped, never charged), the rest are
    left to the caller's pool teardown, and nothing is requeued.
    """
    futures: Dict = {}
    requeue: List = []
    broke = False
    quarantined_crash = False

    def submit(point) -> None:
        nonlocal broke
        try:
            futures[pool.submit(work, point)] = point
        except (BrokenExecutor, RuntimeError):
            broke = True
            requeue.append(point)

    def charge(point, kind, detail) -> bool:
        """One failed attempt; True when the point is now quarantined."""
        nonlocal quarantined_crash
        attempts[point] += 1
        if attempts[point] > policy.max_retries:
            report.failed.append(TaskFailure(point, kind, detail, attempts[point]))
            if kind == "crash":
                quarantined_crash = True
            return True
        report.retries += 1
        return False

    for point in batch:
        if cancel is not None and cancel.is_set():
            break  # not-yet-submitted points are simply skipped
        if broke:
            requeue.append(point)
        else:
            submit(point)

    wait_timeout = policy.task_timeout
    if cancel is not None:
        wait_timeout = (
            _CANCEL_TICK if wait_timeout is None
            else min(wait_timeout, _CANCEL_TICK)
        )
    last_progress = time.monotonic()
    while futures:
        if cancel is not None and cancel.is_set():
            for future in [f for f in list(futures) if f.cancel()]:
                futures.pop(future)  # never started: skipped, not charged
            # The rest are already running in workers; the caller tears
            # the pool down around them.  Nothing is requeued.
            return [], False, quarantined_crash
        done, _ = wait(
            list(futures), timeout=wait_timeout, return_when=FIRST_COMPLETED
        )
        if not done:
            if policy.task_timeout is None or (
                time.monotonic() - last_progress < policy.task_timeout
            ):
                continue  # just a cancel-poll tick, not a stall
            # Stall: nothing finished within task_timeout.  Futures that
            # cancel were still queued — requeue them uncharged; the rest
            # are running in (possibly wedged) workers — charge them.
            for future in [f for f in list(futures) if f.cancel()]:
                requeue.append(futures.pop(future))
            for future, point in futures.items():
                if not charge(
                    point, "timeout",
                    f"no result within {policy.task_timeout:g}s",
                ):
                    requeue.append(point)
            futures.clear()
            broke = True  # wedged workers: the pool must be killed
            break
        last_progress = time.monotonic()
        for future in done:
            point = futures.pop(future)
            try:
                outcome = future.result()
            except CancelledError:
                requeue.append(point)
            except (BrokenExecutor, EOFError, ConnectionError) as exc:
                broke = True
                if charge_broken:
                    if not charge(point, "crash", f"worker died: {exc}"):
                        requeue.append(point)
                else:
                    # Which task killed the worker is unknowable here;
                    # requeue uncharged and let isolation mode indict.
                    requeue.append(point)
            except Exception as exc:
                if not charge(point, "error", f"{type(exc).__name__}: {exc}"):
                    time.sleep(policy.backoff(attempts[point]))
                    if broke:
                        requeue.append(point)
                    else:
                        submit(point)
            else:
                outcomes.append(outcome)
                _notify_result(on_result, point, outcome[1])
    return requeue, broke, quarantined_crash


def _abort_pool(pool) -> None:
    """Tear a (possibly broken or wedged) pool down without waiting.

    ``shutdown(wait=False)`` alone leaves hung workers running — and the
    interpreter joining them at exit — so any surviving worker processes
    are terminated outright.  Touches the private ``_processes`` map; on
    interpreters without it, termination degrades to shutdown only.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
