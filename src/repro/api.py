"""repro.api — the stable programmatic facade.

Everything external callers need lives here under guaranteed names and
JSON shapes; the modules behind it (:mod:`repro.experiments.runner`,
:mod:`repro.experiments.parallel`, :mod:`repro.observe`, ...) may
reorganize freely without breaking downstream scripts.  The CLI
(``python -m repro``) is a thin shell over this module.

Entry points:

* :func:`simulate` — one benchmark on one configuration →
  :class:`RunResult`;
* :func:`grid` — a batch of :class:`GridPoint` coordinates fanned out
  over worker peers (:class:`DistributedScheduler`) → :class:`GridReport`;
* :func:`trace` — one instrumented, cache-bypassing run capturing typed
  events → :class:`TraceReport` (JSONL-exportable);
* :func:`figure` / :func:`headline` — the paper's evaluation artifacts,
  batched through :func:`grid` automatically;
* :func:`fuzz` / :func:`fuzz_replay` — the differential fuzzing
  subsystem (:mod:`repro.verify`): bounded campaigns of random programs
  through the interpreter/scalar/V-mode oracle, and replay of saved
  ``.repro.json`` reproducer artifacts.

Result objects expose ``to_dict()`` returning versioned, JSON-serializable
payloads; the CLI's ``--json`` modes and the service daemon
(:mod:`repro.service`, ``python -m repro serve``) print exactly these.

**The wire contract (v2 envelope).**  Every payload carries the same
top-level envelope: ``schema`` (a registered ``repro.<name>/v<N>``
identifier), ``ok`` (did the operation succeed), ``error`` (``None`` or
a ``repro.error/v1`` object: ``kind``/``message``/``retriable``/
``point``), plus the schema-specific payload fields inline.  The single
schema registry lives in :data:`SCHEMAS` (name -> version -> validator,
implemented in :mod:`repro.schemas` and re-exported here);
:func:`validate_envelope` is the shared check the service, the CLI and
the test suites all run; :func:`envelope` builds every envelope, and
:func:`error_dict` / :func:`error_envelope` build the error shapes.
Registered schemas:
``repro.run/v1``, ``repro.grid/v1``, ``repro.trace/v1``,
``repro.figure/v1`` (one figure), ``repro.figure.set/v1`` (the CLI's
multi-figure payload), ``repro.headline/v1``,
``repro.fuzz/v1``, ``repro.fuzz.oracle/v1``, ``repro.fuzz.repro/v1``,
``repro.fuzz.replay/v1``, ``repro.fuzz.corpus/v1``, ``repro.error/v1``,
and the service's ``repro.service.job/v2`` and
``repro.service.{status,metrics,event}/v1``.
Emitting a schema string literal outside :mod:`repro.schemas` is
deprecated — import the ``SCHEMA_*`` constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Union

from ._lazy import lazy_exports
from .experiments import diskcache
from .experiments import runner as _runner
from .observe.events import (
    FLUSH_BRANCH,
    SQUASH_COHERENCE,
    TL_PROMOTE,
    TraceEvent,
    VALIDATE_FAIL,
    VALIDATE_PASS,
)
from .observe.metrics import MetricsRegistry, record_sim_stats
from .pipeline.stats import SimStats
from .schemas import (
    EnvelopeError,
    SCHEMAS,
    SCHEMA_ERROR,
    SCHEMA_FIGURE,
    SCHEMA_FIGURE_SET,
    SCHEMA_FUZZ,
    SCHEMA_FUZZ_CORPUS,
    SCHEMA_FUZZ_ORACLE,
    SCHEMA_FUZZ_REPLAY,
    SCHEMA_FUZZ_REPRO,
    SCHEMA_GRID,
    SCHEMA_HEADLINE,
    SCHEMA_JOB,
    SCHEMA_RUN,
    SCHEMA_SERVICE_EVENT,
    SCHEMA_SERVICE_METRICS,
    SCHEMA_SERVICE_STATUS,
    SCHEMA_TRACE,
    schema_names,
    envelope,
    error_dict,
    error_envelope,
    validate_envelope,
    wrap_error,
)
from .workloads.suite import ALL_BENCHMARKS

if TYPE_CHECKING:
    from .experiments import parallel as _parallel
    from .experiments.distributed.scheduler import DistributedScheduler
    from .experiments.parallel import GridPoint
    from .experiments.figures import FigureSpec
    from .verify.campaign import CampaignReport

# Facade names whose modules one simulation never runs: the grid, the
# figure registry, the fuzzer and the worker fabric load on first use
# (``grid``, ``figure``, ``fuzz``, a grid with ``jobs > 1``), not with
# this module.
_, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.parallel": ("GridPoint",),
    "repro.experiments.figures": ("FIGURES", "FigureSpec", "figure_names", "get_figure"),
    "repro.verify.campaign": ("CampaignReport",),
    "repro.verify.oracle": ("OracleConfig",),
    "repro.experiments.distributed.scheduler": ("DistributedScheduler",),
})

EXPERIMENT_SCALE = _runner.EXPERIMENT_SCALE


def _check_benchmark(name: str) -> None:
    if name not in ALL_BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {name!r}; known: {', '.join(ALL_BENCHMARKS)}"
        )


class GridFailureError(RuntimeError):
    """A figure/headline grid left failed points after all retries.

    Figures and headline claims need *every* point of their grid; when
    the fault-tolerant runner quarantines points the derived rows would
    be fiction, so the failure list is raised instead.  The parallel
    accounting report (with ``failed`` populated) rides on
    ``.accounting``.
    """

    def __init__(self, accounting: _parallel.GridReport) -> None:
        self.accounting = accounting
        lines = [failure.describe() for failure in accounting.failed]
        super().__init__(
            f"{len(accounting.failed)} grid point(s) failed after retries: "
            + "; ".join(lines)
        )

    def to_error(self) -> Dict:
        """The ``repro.error/v1`` object for this failure (envelope-ready).

        ``retriable`` is False — every quarantined point already
        exhausted its retry budget; an identical resubmission will hit
        the same fault unless the environment changed.  The per-point
        failures ride along as nested error objects.
        """
        return error_dict(
            "grid.failure",
            str(self),
            retriable=False,
            failures=[failure.to_dict() for failure in self.accounting.failed],
        )


class GridCancelled(RuntimeError):
    """A figure/headline grid was stopped by its ``cancel`` signal.

    Figures and headline claims need *every* point; a cancelled batch is
    incomplete by design, so the derived rows cannot be computed and the
    cancellation is raised instead (the partial accounting rides on
    ``.accounting``).  Plain :func:`grid` calls do **not** raise — they
    return the partial report with ``accounting.cancelled`` set.
    """

    def __init__(self, accounting: _parallel.GridReport) -> None:
        self.accounting = accounting
        super().__init__("grid cancelled before completion")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """One simulation's identity + statistics, JSON-stable via to_dict."""

    benchmark: str
    width: int
    ports: int
    mode: str
    scale: int
    block_on_scalar_operand: bool
    stats: SimStats
    metrics: Optional[Dict] = None
    overrides: _runner.Overrides = ()

    @classmethod
    def of(
        cls, point: _runner.PointKey, stats: SimStats, metrics: Optional[Dict] = None
    ) -> "RunResult":
        """The result ``stats`` of grid point ``point``, overrides included."""
        *coordinates, overrides = point
        return cls(*coordinates, stats, metrics, overrides)

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def point(self) -> GridPoint:
        """The grid coordinate this result answers."""
        from .experiments.parallel import GridPoint

        return GridPoint(self.benchmark, self.width, self.ports, self.mode, self.scale,
                         self.block_on_scalar_operand, self.overrides)

    def to_dict(self) -> Dict:
        return envelope(
            SCHEMA_RUN,
            point=_runner.describe_point(self.point()),
            stats=diskcache.stats_to_dict(self.stats),
            derived={
                "ipc": self.stats.ipc,
                "validation_fraction": self.stats.validation_fraction,
                "port_occupancy": self.stats.port_occupancy,
                "memory_accesses": self.stats.memory_accesses,
            },
            metrics=self.metrics,
        )


def simulate(
    benchmark: str,
    *,
    width: int = 4,
    ports: int = 1,
    mode: str = "V",
    scale: int = EXPERIMENT_SCALE,
    block_on_scalar_operand: bool = True,
    metrics: bool = False,
) -> RunResult:
    """Simulate ``benchmark`` on one machine configuration.

    Results come through the two-layer cache (in-process memo + disk), so
    repeated calls are cheap and deterministic.  ``metrics=True`` puts
    the ``sim.*`` metrics derived from the stats in ``RunResult.metrics``
    — the same payload whichever cache layer answered.  Machine-level
    metrics need a fresh observed run: use :func:`trace`.
    """
    _check_benchmark(benchmark)
    point = (benchmark, width, ports, mode, scale, block_on_scalar_operand, ())
    stats = _runner.run_point(*point)
    return RunResult.of(
        point, stats, _stats_metrics([stats]).to_dict() if metrics else None
    )


def _stats_metrics(stats_list: Iterable[SimStats]) -> MetricsRegistry:
    """The ``sim.*`` metrics of ``stats_list``, recorded in its order.

    Order matters: gauges are last-write-wins, so callers pass results
    in request order.
    """
    registry = MetricsRegistry()
    for stats in stats_list:
        record_sim_stats(registry, stats)
    return registry


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def _accounting_dict(accounting: _parallel.GridReport) -> Dict:
    """The wire form of fabric accounting.

    Worker-peer fields (``nodes_lost`` / ``points_reassigned`` /
    ``nodes``) appear only when nonzero/nonempty, so in-process payloads
    carry only the core counters.
    """
    out = {
        "requested": accounting.requested,
        "unique": accounting.unique,
        "memo_hits": accounting.memo_hits,
        "disk_hits": accounting.disk_hits,
        "simulated": accounting.simulated,
        "jobs": accounting.jobs,
        "retries": accounting.retries,
    }
    if accounting.cancelled:
        out["cancelled"] = True
    if accounting.nodes_lost:
        out["nodes_lost"] = accounting.nodes_lost
    if accounting.points_reassigned:
        out["points_reassigned"] = accounting.points_reassigned
    if accounting.nodes:
        out["nodes"] = accounting.nodes
    return out


@dataclass
class GridReport:
    """A batch of grid results plus where-they-came-from accounting."""

    runs: List[RunResult]
    accounting: _parallel.GridReport
    metrics: Optional[MetricsRegistry] = None

    def __len__(self) -> int:
        return len(self.runs)

    @property
    def ok(self) -> bool:
        """True when every requested point produced a result."""
        return self.accounting.ok

    @property
    def failures(self) -> List[_parallel.TaskFailure]:
        """Points quarantined after exhausting their retry budget."""
        return self.accounting.failed

    def stats(self) -> Dict[GridPoint, SimStats]:
        return {run.point(): run.stats for run in self.runs}

    def summary(self) -> str:
        return self.accounting.summary()

    def to_dict(self) -> Dict:
        failed = not self.accounting.ok
        return envelope(
            SCHEMA_GRID,
            error=GridFailureError(self.accounting).to_error() if failed else None,
            accounting=_accounting_dict(self.accounting),
            failures=[failure.to_dict() for failure in self.accounting.failed],
            runs=[run.to_dict() for run in self.runs],
            metrics=self.metrics.to_dict() if self.metrics else None,
        )


def grid(
    points: Iterable[Union[GridPoint, Sequence]],
    *,
    jobs: Optional[int] = None,
    metrics: bool = False,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    scheduler: Optional[DistributedScheduler] = None,
    on_result=None,
    cancel=None,
    progress=None,
) -> GridReport:
    """Compute a batch of grid points, fanning misses over worker peers.

    ``points`` may be :class:`GridPoint` instances or plain tuples in
    GridPoint order; ``report.runs`` follows that order, without
    duplicates.  ``metrics=True`` derives the ``sim.*`` metrics of every
    run into one registry on the returned report, so it is the same
    whether a point came from a worker, the disk cache or the memo.
    ``scheduler``, when given, is a caller-owned
    :class:`DistributedScheduler` whose warm peers run every cold point
    instead of peers spawned for this call (the service daemon's
    amortization lever); without it ``jobs=1`` runs in-process.

    Failures are contained per point: a task that keeps failing (or, with
    ``task_timeout``, hanging) is retried ``max_retries`` times with
    backoff and then quarantined into ``report.failures`` while the rest
    of the batch completes — check ``report.ok`` before trusting a full
    grid.  See :class:`repro.experiments.parallel.FaultPolicy`.

    ``on_result(point, stats_dict)`` streams each point as it completes
    (cache hits immediately, computed points from inside the fabric);
    ``progress(event, **data)`` receives the scheduler's point and node
    events for this batch;
    ``cancel`` — anything with ``is_set()`` — stops the batch early with
    ``report.accounting.cancelled`` set, keeping (and caching) whatever
    completed first.  See :func:`repro.experiments.parallel.run_grid`.
    """
    from .experiments import parallel as _parallel
    from .experiments.parallel import GridPoint

    accounting = _parallel.GridReport()
    results = _parallel.run_grid(
        [GridPoint(*point) for point in points],
        jobs=jobs,
        report=accounting,
        task_timeout=task_timeout,
        max_retries=max_retries,
        scheduler=scheduler,
        on_result=on_result,
        cancel=cancel,
        progress=progress,
    )
    runs = [RunResult.of(point, stats) for point, stats in results.items()]
    registry = _stats_metrics(run.stats for run in runs) if metrics else None
    return GridReport(runs=runs, accounting=accounting, metrics=registry)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

#: event kind -> SimStats counter it must equal (the cross-check contract).
_CROSSCHECK_COUNTERS = {
    TL_PROMOTE: "vector_load_instances",
    VALIDATE_PASS: "validations_committed",
    VALIDATE_FAIL: "validation_failures",
    SQUASH_COHERENCE: "store_conflicts",
    FLUSH_BRANCH: "branch_mispredicts",
}


@dataclass
class TraceReport:
    """One instrumented run's captured events + capture accounting."""

    result: RunResult
    events: List[TraceEvent] = field(default_factory=list)
    bus_summary: Dict = field(default_factory=dict)

    def crosscheck(self) -> Dict[str, Dict]:
        """Per-kind event counts vs the SimStats counters they mirror.

        Only kinds the bus subscribed to are checked (filtered kinds are
        never counted).  Every ``match`` is True by construction; a False
        is an instrumentation bug.
        """
        counts = self.bus_summary.get("counts", {})
        kinds = self.bus_summary.get("kinds")
        out: Dict[str, Dict] = {}
        for kind, attr in _CROSSCHECK_COUNTERS.items():
            if kinds is not None and kind not in kinds:
                continue
            expected = getattr(self.result.stats, attr)
            got = counts.get(kind, 0)
            out[kind] = {"events": got, "counter": attr,
                         "expected": expected, "match": got == expected}
        return out

    def to_dict(self) -> Dict:
        return envelope(
            SCHEMA_TRACE,
            run=self.result.to_dict(),
            capture=self.bus_summary,
            crosscheck=self.crosscheck(),
            events=[event.to_dict() for event in self.events],
        )


def trace(
    benchmark: str,
    *,
    width: int = 4,
    ports: int = 1,
    mode: str = "V",
    scale: int = EXPERIMENT_SCALE,
    block_on_scalar_operand: bool = True,
    events: Optional[Iterable[str]] = None,
    capacity: int = 65_536,
    metrics: bool = False,
) -> TraceReport:
    """Run one instrumented simulation and capture its event stream.

    Always simulates (never a stats-cache hit — a cached result has no
    events to replay) and never writes the stats cache, so tracing cannot
    perturb cached experiment state.  Stats are bit-identical to the
    uninstrumented run of the same point.

    ``events`` filters by kind, group alias, or subsystem prefix (see
    :func:`repro.observe.resolve_event_kinds`); None captures everything.
    ``metrics=True`` records the run's machine-level metrics (``engine.*``,
    ``mem.*``, ``ports.*``, ...) plus the ``sim.*`` metrics that
    :func:`simulate` derives, so its payload is a superset of theirs.
    A trace this call loads is released again once the run is done.
    """
    from .observe import Observer
    from .pipeline.machine import Machine
    from .workloads import spec95

    _check_benchmark(benchmark)
    observer = Observer.tracing(events=events, capacity=capacity, metrics=metrics)
    kinds = observer.bus.kinds
    config = _runner.point_config(width, ports, mode, block_on_scalar_operand)
    with spec95.trace_scope(benchmark, scale):
        stats = Machine(config, spec95.cached_trace(benchmark, scale), observer=observer).run()
    if observer.metrics is not None:
        record_sim_stats(observer.metrics, stats)
    summary = observer.bus.summary()
    summary["kinds"] = sorted(kinds) if kinds is not None else None
    result = RunResult.of(
        (benchmark, width, ports, mode, scale, block_on_scalar_operand, ()),
        stats,
        observer.metrics.to_dict() if observer.metrics else None,
    )
    return TraceReport(
        result=result,
        events=list(observer.bus.events),
        bus_summary=summary,
    )


# ---------------------------------------------------------------------------
# figures / headline
# ---------------------------------------------------------------------------


@dataclass
class FigureResult:
    """One regenerated figure: rows keyed by benchmark, plus identity."""

    spec: FigureSpec
    rows: Dict[str, Dict[str, float]]
    grid: Optional[GridReport] = None

    def to_dict(self) -> Dict:
        return envelope(SCHEMA_FIGURE, figure=self.spec.describe(), rows=self.rows)


def figure(
    name: str,
    *,
    scale: int = EXPERIMENT_SCALE,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    scheduler: Optional[DistributedScheduler] = None,
    on_result=None,
    cancel=None,
    progress=None,
) -> FigureResult:
    """Regenerate one figure of the paper (see :data:`FIGURES` for names).

    The figure's simulation points are batched through :func:`grid` first
    (memo hits when a driver already ran them), then the rows are
    computed from the in-process memo.  Raises :class:`GridFailureError`
    if any batched point failed after retries — partial figures are worse
    than no figures.
    """
    from .experiments.figures import get_figure

    spec = get_figure(name)
    report = None
    points = spec.points(scale)
    if points:
        report = grid(
            points, jobs=jobs,
            task_timeout=task_timeout, max_retries=max_retries,
            scheduler=scheduler, on_result=on_result,
            cancel=cancel, progress=progress,
        )
        if not report.ok:
            raise GridFailureError(report.accounting)
        if report.accounting.cancelled:
            raise GridCancelled(report.accounting)
    return FigureResult(spec=spec, rows=spec.rows(scale), grid=report)


def headline(
    *,
    scale: int = EXPERIMENT_SCALE,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    scheduler: Optional[DistributedScheduler] = None,
    on_result=None,
    cancel=None,
    progress=None,
) -> Dict[str, float]:
    """Measure the paper's headline claims (§1/§4/§6) on this machine.

    Raises :class:`GridFailureError` when any underlying grid point
    failed after retries (the claims need the complete grid).
    """
    from .experiments import figures as _figures

    report = grid(
        _figures.headline_points(scale), jobs=jobs,
        task_timeout=task_timeout, max_retries=max_retries,
        scheduler=scheduler, on_result=on_result,
        cancel=cancel, progress=progress,
    )
    if not report.ok:
        raise GridFailureError(report.accounting)
    if report.accounting.cancelled:
        raise GridCancelled(report.accounting)
    return _figures.headline_claims(scale)


def headline_envelope(claims: Dict[str, float], scale: int) -> Dict:
    """The ``repro.headline/v1`` envelope of measured ``claims``."""
    # ``sampled`` is kept for repro.headline/v1: simulation is always exact.
    return envelope(SCHEMA_HEADLINE, scale=scale, sampled=False, claims=claims)


# ---------------------------------------------------------------------------
# fuzz (differential verification; see repro.verify)
# ---------------------------------------------------------------------------


def fuzz(
    *,
    seed: int = 0,
    max_programs: int = 100,
    budget_seconds: Optional[float] = None,
    width: int = 4,
    ports: int = 1,
    scalar_mode: str = "noIM",
    max_instructions: int = 50_000,
    artifact_dir: str = "fuzz-artifacts",
    use_corpus: bool = True,
    minimize: bool = True,
    log=None,
) -> CampaignReport:
    """Run a differential fuzz campaign (interpreter vs scalar vs V-mode).

    Generates seeded random programs (mutating the persistent corpus once
    it is non-empty), runs each through the three-way oracle, keeps
    behaviourally novel inputs, and minimizes + persists any divergence
    as a ``.repro.json`` artifact under ``artifact_dir``.  The returned
    :class:`repro.verify.CampaignReport` serializes to the versioned
    ``repro.fuzz/v1`` schema; ``report.ok`` is the CI gate.
    """
    from .verify.campaign import run_campaign
    from .verify.oracle import OracleConfig

    oracle = OracleConfig(
        width=width,
        ports=ports,
        scalar_mode=scalar_mode,
        max_instructions=max_instructions,
    )
    return run_campaign(
        seed=seed,
        max_programs=max_programs,
        budget_seconds=budget_seconds,
        oracle=oracle,
        artifact_dir=artifact_dir,
        use_corpus=use_corpus,
        minimize=minimize,
        log=log,
    )


def fuzz_replay(path) -> Dict:
    """Re-execute a ``.repro.json`` reproducer artifact.

    Returns the versioned ``repro.fuzz.replay/v1`` payload: the recorded
    oracle report, the freshly replayed one, and ``matches`` (bit-for-bit
    equality of the two).
    """
    from .verify.minimize import replay_artifact

    return replay_artifact(path)


__all__ = [
    "ALL_BENCHMARKS",
    "CampaignReport",
    "DistributedScheduler",
    "EXPERIMENT_SCALE",
    "EnvelopeError",
    "FIGURES",
    "FigureResult",
    "FigureSpec",
    "GridCancelled",
    "GridFailureError",
    "GridPoint",
    "GridReport",
    "OracleConfig",
    "RunResult",
    "SCHEMAS",
    "SCHEMA_ERROR",
    "SCHEMA_FIGURE",
    "SCHEMA_FIGURE_SET",
    "SCHEMA_FUZZ",
    "SCHEMA_FUZZ_CORPUS",
    "SCHEMA_FUZZ_ORACLE",
    "SCHEMA_FUZZ_REPLAY",
    "SCHEMA_FUZZ_REPRO",
    "SCHEMA_GRID",
    "SCHEMA_HEADLINE",
    "SCHEMA_JOB",
    "SCHEMA_RUN",
    "SCHEMA_SERVICE_EVENT",
    "SCHEMA_SERVICE_METRICS",
    "SCHEMA_SERVICE_STATUS",
    "SCHEMA_TRACE",
    "TraceReport",
    "envelope",
    "error_dict",
    "error_envelope",
    "figure",
    "figure_names",
    "fuzz",
    "fuzz_replay",
    "get_figure",
    "grid",
    "headline",
    "headline_envelope",
    "schema_names",
    "simulate",
    "trace",
    "validate_envelope",
    "wrap_error",
]
