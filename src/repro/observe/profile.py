"""Profiling hooks: pipeline-stage cycle attribution + wall-clock shares.

Two complementary views of "where does the time go":

* **Simulated-cycle attribution** — for each simulated cycle, which
  pipeline stages were active (commit / execute / memory / dispatch /
  fetch).  This is the microarchitectural view: a benchmark whose
  ``execute`` activity dwarfs ``commit`` is window-bound, one whose
  ``fetch`` share collapses is starving on mispredictions.
* **Wall-clock self-profiling** — seconds the *simulator* spends
  inside each stage, read from ``perf_counter`` at each stage boundary of
  the run loop.  This is the engineering view: it tells the next optimization
  PR which stage's Python is hot, and it is surfaced in
  ``BENCH_perf.json``'s ``profile`` section.

The profiler is handed to :class:`~repro.pipeline.machine.Machine` via an
:class:`~repro.observe.Observer`.  Its hooks sit inside the machine's one
run loop (the loop every run executes), so the profile describes the
code that plain runs time; when absent each hook costs one ``is not
None`` test.  Profiled runs are bit-identical to unprofiled ones — the
hooks only read the clock.
"""

from __future__ import annotations

import time
from typing import Dict

#: canonical stage order (pipeline order, youngest data last).
STAGES = ("commit", "execute", "memory", "dispatch", "fetch")


class StageProfiler:
    """Per-stage simulated-cycle activity and wall-clock accumulation."""

    __slots__ = ("stage_cycles", "stage_seconds", "cycles", "wall_seconds")

    def __init__(self) -> None:
        #: simulated cycles in which each stage did work.
        self.stage_cycles: Dict[str, int] = {stage: 0 for stage in STAGES}
        #: wall-clock seconds spent inside each stage's Python.
        self.stage_seconds: Dict[str, float] = {stage: 0.0 for stage in STAGES}
        #: total simulated cycles observed.
        self.cycles = 0
        #: total wall-clock of the profiled run loop.
        self.wall_seconds = 0.0

    # -- recording (machine-facing) ----------------------------------------

    def account(self, stage: str, seconds: float, active: bool = True) -> None:
        """Attribute one stage invocation: its wall time and activity."""
        self.stage_seconds[stage] += seconds
        if active:
            self.stage_cycles[stage] += 1

    # -- reporting ---------------------------------------------------------

    def wall_fractions(self) -> Dict[str, float]:
        """Each stage's share of the summed stage wall-clock."""
        total = sum(self.stage_seconds.values())
        if not total:
            return {stage: 0.0 for stage in STAGES}
        return {stage: self.stage_seconds[stage] / total for stage in STAGES}

    def cycle_fractions(self) -> Dict[str, float]:
        """Fraction of simulated cycles each stage was active in."""
        if not self.cycles:
            return {stage: 0.0 for stage in STAGES}
        return {stage: self.stage_cycles[stage] / self.cycles for stage in STAGES}

    def to_dict(self) -> Dict:
        """JSON-safe report (the ``BENCH_perf.json`` ``profile`` payload)."""
        return {
            "cycles": self.cycles,
            "wall_seconds": round(self.wall_seconds, 6),
            "stage_cycles": dict(self.stage_cycles),
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in self.stage_seconds.items()
            },
            "stage_wall_fraction": {
                stage: round(fraction, 4)
                for stage, fraction in self.wall_fractions().items()
            },
            "stage_cycle_fraction": {
                stage: round(fraction, 4)
                for stage, fraction in self.cycle_fractions().items()
            },
        }


#: the clock the profiled loop reads (monkeypatchable in tests).
perf_counter = time.perf_counter
