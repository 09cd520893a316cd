"""repro.observe — structured observability for the simulator.

Three cooperating pieces, all **zero-overhead when off**:

* :mod:`~repro.observe.events` — a typed event-tracing bus
  (:class:`TraceBus`) that the pipeline, core, frontend and memory layers
  emit through: TL promotions/demotions, VRMT maps/invalidates, vector
  element fetches, validation passes/failures, coherence squashes,
  branch flushes, cache misses and MSHR merges.  Ring-buffer capture,
  per-kind counts that cross-check against ``SimStats``, JSONL export
  (``python -m repro trace``).
* :mod:`~repro.observe.metrics` — a :class:`MetricsRegistry` of
  counters/gauges/histograms/series that an observed run fills with
  machine-level metrics, and that :func:`record_sim_stats` fills with
  the ``sim.*`` counters of any ``SimStats``.
* :mod:`~repro.observe.profile` — a :class:`StageProfiler` attributing
  simulated cycles and simulator wall-clock to pipeline stages
  (``BENCH_perf.json``'s ``profile`` section).

An :class:`Observer` bundles the three; instrumented components accept
``observer=None`` (the default — nothing is constructed, emission sites
cost one ``is not None`` test) or an observer with any subset attached::

    from repro.observe import Observer
    obs = Observer.tracing(events=["validation", "squash"])
    stats = Machine(config, trace, observer=obs).run()
    obs.bus.export_jsonl(sys.stdout)
"""

from __future__ import annotations

from typing import Iterable, Optional

from .events import (
    CACHE_MISS,
    coverage_signature,
    EVENT_GROUPS,
    EVENT_KINDS,
    FETCH_REDIRECT,
    FLUSH_BRANCH,
    MSHR_MERGE,
    SQUASH_COHERENCE,
    TL_DEMOTE,
    TL_PROMOTE,
    TraceBus,
    TraceEvent,
    VALIDATE_FAIL,
    VALIDATE_PASS,
    VFETCH_ISSUE,
    VRMT_INVALIDATE,
    VRMT_MAP,
    resolve_event_kinds,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    record_sim_stats,
)
from .profile import STAGES, StageProfiler


class Observer:
    """The bundle an instrumented run carries: bus, metrics, profiler.

    Every part is optional and independently ``None``; components test
    the part they feed (``observer.bus``, ``observer.metrics``,
    ``observer.profiler``) so an observer carrying only metrics pays no
    tracing cost and vice versa.
    """

    __slots__ = ("bus", "metrics", "profiler")

    def __init__(
        self,
        bus: Optional[TraceBus] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[StageProfiler] = None,
    ) -> None:
        self.bus = bus
        self.metrics = metrics
        self.profiler = profiler

    @classmethod
    def tracing(
        cls,
        events: Optional[Iterable[str]] = None,
        capacity: int = 65_536,
        metrics: bool = False,
    ) -> "Observer":
        """An observer with a capture bus (and optionally a registry).

        ``events`` filters emission by kind/group/prefix (see
        :func:`~repro.observe.events.resolve_event_kinds`); None
        subscribes to everything.
        """
        return cls(
            bus=TraceBus(capacity=capacity, kinds=resolve_event_kinds(events)),
            metrics=MetricsRegistry() if metrics else None,
        )


__all__ = [
    "Observer",
    "TraceBus",
    "TraceEvent",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "StageProfiler",
    "STAGES",
    "record_sim_stats",
    "resolve_event_kinds",
    "coverage_signature",
    "EVENT_KINDS",
    "EVENT_GROUPS",
    "TL_PROMOTE",
    "TL_DEMOTE",
    "VRMT_MAP",
    "VRMT_INVALIDATE",
    "VFETCH_ISSUE",
    "VALIDATE_PASS",
    "VALIDATE_FAIL",
    "SQUASH_COHERENCE",
    "FLUSH_BRANCH",
    "CACHE_MISS",
    "MSHR_MERGE",
    "FETCH_REDIRECT",
]
