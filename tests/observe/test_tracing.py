"""Integration: instrumented runs are bit-identical and cross-checkable.

The observability contract has two halves the unit tests cannot pin:

* attaching a full observer (bus + metrics + profiler) must not change a
  single simulated statistic;
* per-kind event counts must equal the ``SimStats`` counters they mirror
  — the emission sites are correct, not merely plausible.

``turb3d`` at width 8 / 2 ports exercises every interesting kind in one
small run (TL promotions, failed validations, coherence squashes, branch
flushes).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.observe import (
    FLUSH_BRANCH,
    MetricsRegistry,
    Observer,
    SQUASH_COHERENCE,
    StageProfiler,
    TL_PROMOTE,
    VALIDATE_FAIL,
    VALIDATE_PASS,
    VFETCH_ISSUE,
)
from repro.pipeline.config import make_config
from repro.pipeline.machine import Machine
from repro.workloads.spec95 import cached_trace

SCALE = 4_000


@pytest.fixture(scope="module")
def turb3d_trace():
    return cached_trace("turb3d", SCALE)


def _run(trace, observer=None):
    config = make_config(8, 2, "V")
    return Machine(config, trace, observer=observer).run()


def test_observed_run_is_bit_identical(turb3d_trace):
    plain = _run(turb3d_trace)
    observer = Observer.tracing(metrics=True)
    observer.profiler = StageProfiler()
    observed = _run(turb3d_trace, observer)
    assert dataclasses.asdict(observed) == dataclasses.asdict(plain)


def test_event_counts_cross_check_against_stats(turb3d_trace):
    observer = Observer.tracing()
    stats = _run(turb3d_trace, observer)
    bus = observer.bus
    assert bus.count(TL_PROMOTE) == stats.vector_load_instances
    assert bus.count(VALIDATE_PASS) == stats.validations_committed
    assert bus.count(VALIDATE_FAIL) == stats.validation_failures
    assert bus.count(SQUASH_COHERENCE) == stats.store_conflicts
    assert bus.count(FLUSH_BRANCH) == stats.branch_mispredicts
    # the point is chosen to exercise every checked kind
    assert stats.validation_failures > 0
    assert stats.store_conflicts > 0
    assert stats.branch_mispredicts > 0
    assert bus.count(VFETCH_ISSUE) > 0


def test_event_cycles_are_monotonic(turb3d_trace):
    # Capture order is emission order.  Events stamped with the current
    # cycle are therefore cycle-monotonic; the exceptions are the
    # future-dated kinds (``fetch.redirect`` carries its *resume* cycle).
    observer = Observer.tracing(events=["validation", "tl", "vrmt", "squash"])
    _run(turb3d_trace, observer)
    cycles = [event.cycle for event in observer.bus.events]
    assert cycles, "tracing a V-mode run must capture events"
    assert all(a <= b for a, b in zip(cycles, cycles[1:]))


def test_unsubscribed_bus_emits_nothing(turb3d_trace):
    # Subscribe to the vector engine's kinds on a run without the engine
    # (the V-mode run emits every kind): the bus must stay empty —
    # instrumentation points filter before capture.
    observer = Observer.tracing(events=["tl", "vrmt", "validation"])
    Machine(make_config(8, 2, "noIM"), turb3d_trace, observer=observer).run()
    assert observer.bus.emitted == 0
    assert observer.bus.summary()["counts"] == {}


def test_filtered_capture_only_contains_subscribed_kinds(turb3d_trace):
    observer = Observer.tracing(events=["validation", "squash"])
    stats = _run(turb3d_trace, observer)
    kinds = {event.kind for event in observer.bus.events}
    assert kinds <= {VALIDATE_PASS, VALIDATE_FAIL, SQUASH_COHERENCE, FLUSH_BRANCH}
    # filtering must not damage the counts of what *is* subscribed
    assert observer.bus.count(VALIDATE_FAIL) == stats.validation_failures


def test_profiler_attributes_the_whole_run(turb3d_trace):
    observer = Observer(profiler=StageProfiler())
    stats = _run(turb3d_trace, observer)
    prof = observer.profiler
    assert prof.cycles == stats.cycles
    assert prof.wall_seconds > 0
    assert sum(prof.stage_seconds.values()) > 0
    fractions = prof.wall_fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9
    # commit happens every productive cycle; it must be attributed
    assert prof.stage_cycles["commit"] > 0


def test_metrics_only_observer_populates_machine_gauges(turb3d_trace):
    observer = Observer(metrics=MetricsRegistry())
    stats = _run(turb3d_trace, observer)
    reg = observer.metrics
    assert reg.gauge("ports.read_transactions").value == stats.read_accesses
    assert reg.gauge("engine.vrmt.orphaned_registers").value >= 0
    hist = reg.histogram("validate.fail.pc")
    assert hist.total == stats.validation_failures
    assert len(reg.series("ports.occupancy").samples) >= 0
