"""repro.observe — structured observability for the simulator.

Two cooperating pieces, both **zero-overhead when off**:

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

An :class:`Observer` bundles the two; instrumented components accept
``observer=None`` (the default — nothing is constructed, emission sites
cost one ``is not None`` test) or an observer with any subset attached::

    from repro.observe import Observer
    obs = Observer.tracing(events=["validation", "squash"])
    stats = Machine(config, trace, observer=obs).run()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .events import TraceBus
    from .metrics import MetricsRegistry


class Observer:
    """The bundle an instrumented run carries: bus and metrics.

    Each part is optional and independently ``None``; components test
    the part they feed (``observer.bus``, ``observer.metrics``) so an
    observer carrying only metrics pays no tracing cost and vice versa.
    """

    __slots__ = ("bus", "metrics")

    def __init__(
        self,
        bus: Optional[TraceBus] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.bus = bus
        self.metrics = metrics

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
        from .events import TraceBus, resolve_event_kinds
        from .metrics import MetricsRegistry

        return cls(
            bus=TraceBus(capacity=capacity, kinds=resolve_event_kinds(events)),
            metrics=MetricsRegistry() if metrics else None,
        )


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".events": (
        "TraceBus",
        "TraceEvent",
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
    ),
    ".metrics": (
        "MetricsRegistry",
        "Counter",
        "Gauge",
        "Histogram",
        "Series",
        "record_sim_stats",
    ),
})
__all__.insert(0, "Observer")
