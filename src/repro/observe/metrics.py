"""Metrics registry: counters, gauges, histograms and time series.

Where the event bus (:mod:`repro.observe.events`) answers "what happened,
in order", the registry answers "how much, of what, distributed how".  It
is the structured replacement for bolting ever more ad-hoc counters onto
:class:`~repro.pipeline.stats.SimStats`:

* **Counter** — monotonically increasing count (``inc``);
* **Gauge** — last-written value (``set``);
* **Histogram** — value -> count map with summary statistics; the natural
  shape for *labelled* counts such as per-PC validation failures
  (``histogram("validate.fail.pc").observe(pc)``);
* **Series** — ``(x, value)`` samples, e.g. the port-occupancy time
  series sampled during an observed run.

The whole registry renders to a plain JSON-safe dict
(:meth:`MetricsRegistry.to_dict`).  Registries are never merged: each
one is filled by a single run or derived from a set of stats in one
place (see below).

:func:`record_sim_stats` is the thin recording shim between the legacy
``SimStats`` counters and the registry: it mirrors every counter field
into namespaced ``sim.*`` metrics, so registry consumers read one format
whether a number originated in a hot-loop ``stats.x += 1`` or a labelled
``metrics`` call.  (The hot loops keep their direct increments — a
pure-Python simulator cannot afford an indirection per event — the shim
runs once per completed run.)  It is the only way ``sim.*`` metrics are
made: a grid or a single run derives them from its stats
(:func:`repro.api.grid`, :func:`repro.api.simulate`), so they depend on
the stats alone, never on which cache layer answered.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, value: Number = 0) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def to_payload(self) -> Number:
        return self.value


class Gauge:
    """A last-write-wins sampled value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, value: Number = 0) -> None:
        self.value = value

    def set(self, value: Number) -> None:
        self.value = value

    def to_payload(self) -> Number:
        return self.value


class Histogram:
    """A value -> count map (labelled counts / discrete distributions).

    Keys may be ints (PCs, element counts) or strings (labels); float
    observations are allowed but counted by exact value — quantize first
    if you need buckets.
    """

    __slots__ = ("counts",)
    kind = "histogram"

    def __init__(self, counts: Optional[Dict] = None) -> None:
        self.counts: Dict = counts if counts is not None else {}

    def observe(self, value, count: int = 1) -> None:
        self.counts[value] = self.counts.get(value, 0) + count

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def quantile(self, q: float) -> Optional[Number]:
        """The smallest numeric key at or above the ``q`` quantile.

        Walks the sorted numeric keys accumulating counts (nearest-rank
        definition, so ``quantile(0.5)`` on {1: 1, 3: 1} is 1, not 2);
        string-keyed entries are ignored.  None on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        numeric = sorted(
            (key, count) for key, count in self.counts.items()
            if isinstance(key, (int, float)) and not isinstance(key, bool)
        )
        total = sum(count for _, count in numeric)
        if total == 0:
            return None
        rank = max(1, math.ceil(q * total))
        seen = 0
        for key, count in numeric:
            seen += count
            if seen >= rank:
                return key
        return numeric[-1][0]

    def to_payload(self) -> Dict:
        # JSON object keys are strings; keep the original type in-band.
        return {str(k): [("i" if isinstance(k, int) else "s"), v] for k, v in self.counts.items()}


class Series:
    """An append-only list of ``(x, value)`` samples (x: cycle, position, ...)."""

    __slots__ = ("samples",)
    kind = "series"

    def __init__(self, samples: Optional[List] = None) -> None:
        self.samples: List[Tuple[Number, Number]] = samples if samples is not None else []

    def append(self, x: Number, value: Number) -> None:
        self.samples.append((x, value))

    def to_payload(self) -> List:
        return [list(sample) for sample in self.samples]


class MetricsRegistry:
    """A flat name -> metric map with lazy creation and type checking.

    Naming convention: dotted ``<subsystem>.<what>[.<label-dimension>]``,
    e.g. ``sim.validation_failures``, ``validate.fail.pc``,
    ``ports.occupancy.series`` — see docs/OBSERVABILITY.md for the index.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # -- typed accessors (create on first use) -----------------------------

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls()
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(metric).kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def series(self, name: str) -> Series:
        return self._get(name, Series)

    # -- introspection -----------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe rendering: ``{name: {"kind": ..., "data": ...}}``."""
        return {
            name: {"kind": metric.kind, "data": metric.to_payload()}
            for name, metric in sorted(self._metrics.items())
        }


# ---------------------------------------------------------------------------
# The SimStats recording shim
# ---------------------------------------------------------------------------


def record_sim_stats(registry: MetricsRegistry, stats, prefix: str = "sim.") -> None:
    """Mirror every ``SimStats`` counter field into ``registry``.

    Numeric fields become ``<prefix><field>`` counters (so recording
    several grid points into one registry *sums* them); the port
    occupancy ratio and the usefulness histogram become gauges; derived
    ratios are left to consumers (they do not sum).
    """
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if field.name == "port_occupancy":
            registry.gauge(prefix + field.name).set(value)
        else:
            registry.counter(prefix + field.name).inc(value)
    for bucket, fraction in (stats.usefulness or {}).items():
        registry.gauge(f"{prefix}usefulness.{bucket}").set(fraction)
