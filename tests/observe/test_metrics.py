"""Unit tests for the metrics registry: types, serialization, the stats shim."""

from __future__ import annotations

import pytest

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    record_sim_stats,
)
from repro.pipeline.stats import SimStats


def test_lazy_creation_and_type_checking():
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    assert reg.counter("a").value == 3
    assert "a" in reg and len(reg) == 1
    with pytest.raises(TypeError, match="counter"):
        reg.gauge("a")


def test_to_dict_renders_every_kind():
    reg = MetricsRegistry()
    reg.counter("c").inc(4)
    reg.gauge("g").set(0.25)
    reg.histogram("h").observe(12)
    reg.histogram("h").observe("label", count=3)
    reg.series("s").append(4096, 0.5)

    assert reg.to_dict() == {
        "c": {"kind": "counter", "data": 4},
        "g": {"kind": "gauge", "data": 0.25},
        # int and str histogram keys stay apart in JSON's string keys
        "h": {"kind": "histogram", "data": {"12": ["i", 1], "label": ["s", 3]}},
        "s": {"kind": "series", "data": [[4096, 0.5]]},
    }
    assert [type(reg.get(name)) for name in reg.names()] == [
        Counter, Gauge, Histogram, Series
    ]


def test_record_sim_stats_counters_and_ratio_gauges():
    stats = SimStats(
        cycles=100,
        committed=400,
        validation_failures=3,
        port_occupancy=0.75,
        usefulness={"1": 0.5, "unused": 0.1},
    )
    reg = MetricsRegistry()
    record_sim_stats(reg, stats)
    record_sim_stats(reg, stats)  # a second point on the same registry
    # plain counters sum across points...
    assert reg.counter("sim.committed").value == 800
    assert reg.counter("sim.validation_failures").value == 6
    # ...ratios are gauges (summing fractions would be meaningless)
    assert reg.gauge("sim.port_occupancy").value == 0.75
    assert reg.gauge("sim.usefulness.unused").value == 0.1
    # non-numeric fields (the usefulness dict itself) are skipped
    assert "sim.usefulness" not in reg
