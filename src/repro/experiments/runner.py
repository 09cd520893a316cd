"""Shared experiment execution with two-layer memoization.

The paper's evaluation sweeps the same 12 benchmarks over a grid of
machine configurations; several figures reuse the same runs (Fig 11's IPC
and Fig 12's occupancy come from identical simulations).  Results are
cached at two layers:

* **in-process memo** — a plain dict keyed by the grid coordinates, so
  repeated :func:`run_point` calls inside one process cost a dict lookup;
* **persistent disk cache** (:mod:`repro.experiments.diskcache`) — keyed
  by a content hash of the benchmark, scale, resolved
  :class:`~repro.pipeline.config.MachineConfig` and a digest of the
  simulator sources, so a *new* process (a rerun of ``python -m repro
  figures``, a pytest-bench invocation, a worker peer) skips simulation
  entirely for points any earlier process already ran.

:func:`run_point` returns a **private copy** of the cached stats: callers
may freely mutate the result (e.g. normalize counters in place) without
corrupting what later callers — or other figures sharing the same grid
point — observe.

For whole-grid fan-out over worker peers, see
:mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from typing import Dict, Tuple

from ..observe import MetricsRegistry, Observer, record_sim_stats
from ..pipeline.config import MachineConfig, make_config
from ..pipeline.machine import Machine
from ..pipeline.stats import SimStats
from ..workloads.spec95 import cached_trace
from . import diskcache

#: default dynamic instruction budget per benchmark for experiments; large
#: enough for steady-state statistics, small enough for a pure-Python
#: cycle-level model (DESIGN.md §5.3).
EXPERIMENT_SCALE = 12_000

#: the paper's port counts and memory modes (Fig 11/12 grid).
PORT_COUNTS = (1, 2, 4)
MODES = ("noIM", "IM", "V")

#: grid coordinates -> master SimStats (the in-process memo layer):
#: ``(benchmark, width, ports, mode, scale, block_on_scalar_operand)``.
PointKey = Tuple[str, int, int, str, int, bool]
_MEMO: Dict[PointKey, SimStats] = {}

#: simulations actually executed by this process (memo/disk misses).
_SIMULATIONS_RUN = 0


def _fire_fault(site: str, **context) -> None:
    """Deterministic fault-injection hook (:mod:`repro.verify.faults`).

    Imported lazily — :mod:`repro.verify` itself imports this package,
    so a top-level import would cycle — and only once the injector is
    armed (module already loaded, or ``$REPRO_FAULTS`` set, which is how
    specs reach worker peers).  With nothing armed this is one dict
    probe per *task*, nowhere near any hot loop.
    """
    module = sys.modules.get("repro.verify.faults")
    if module is None:
        if not os.environ.get("REPRO_FAULTS"):
            return
        from ..verify import faults as module
    module.fire(site, **context)


def point_config(
    width: int, ports: int, mode: str, block_on_scalar_operand: bool = True
) -> MachineConfig:
    """The fully-resolved config for one grid point (shared with workers)."""
    config = make_config(width, ports, mode)
    config.vector.block_on_scalar_operand = block_on_scalar_operand
    return config


def _copy_stats(stats: SimStats) -> SimStats:
    """A structurally-fresh copy sharing no mutable state with the master."""
    return replace(stats, usefulness=dict(stats.usefulness))


def point_cache_key(point: PointKey) -> str:
    """The disk cache's stats key for one grid point.

    The one derivation of a point's content-hash identity: the entry
    :func:`compute_point` writes, the grid's parent-side disk probe and
    the service's dedup key all name it here.
    """
    name, width, ports, mode, scale, block_on_scalar_operand = point
    config = point_config(width, ports, mode, block_on_scalar_operand)
    return diskcache.stats_key(name, scale, 0, config)


def run_point(
    name: str,
    width: int = 4,
    ports: int = 1,
    mode: str = "V",
    scale: int = EXPERIMENT_SCALE,
    block_on_scalar_operand: bool = True,
    observer=None,
) -> SimStats:
    """Simulate benchmark ``name`` on one machine-configuration point.

    ``observer`` (a :class:`repro.observe.Observer`) threads tracing /
    metrics / profiling into the run.  An attached metrics registry is
    fed on every path: a memo hit synthesizes the ``sim.*`` counters
    from the cached stats, a disk hit additionally merges any persisted
    machine-level metrics, and a fresh simulation records everything.
    Stats are bit-identical with or without an observer.

    Results are memoized in-process and persisted to the on-disk cache;
    every call returns a fresh :class:`SimStats` copy, so mutating a
    returned object never affects other callers.
    """
    key = (name, width, ports, mode, scale, block_on_scalar_operand)
    stats = _MEMO.get(key)
    if stats is None:
        stats = _MEMO[key] = compute_point(key, observer)
    elif observer is not None and observer.metrics is not None:
        # Memo hit: the run is not repeated, but the aggregate registry
        # still receives this point's sim.* counters (machine-level
        # extras only exist where a simulation or disk entry carried them).
        record_sim_stats(observer.metrics, stats)
    return _copy_stats(stats)


def compute_point(key: PointKey, observer=None) -> SimStats:
    """Disk-cache lookup + (on miss) one simulation for one grid point.

    Shared by :func:`run_point` and the grid's worker peers; bypasses the
    in-process memo on purpose (the callers own that layer).

    When ``observer`` carries a metrics registry, the point's metrics are
    folded into it whichever path produced the stats: fresh simulations
    record into a per-point registry (persisted to the disk entry, then
    merged), disk hits merge the entry's persisted payload, and both
    paths finish with the ``sim.*`` counter shim so aggregation across a
    grid is uniform.
    """
    global _SIMULATIONS_RUN
    name, width, ports, mode, scale, block_on_scalar_operand = key
    _fire_fault(
        "grid.point", benchmark=name, width=width, ports=ports, mode=mode, scale=scale
    )
    disk_key = point_cache_key(key)
    want_metrics = observer is not None and observer.metrics is not None
    entry = diskcache.load_stats_entry(disk_key)
    if entry is not None:
        stats, persisted = entry
        if want_metrics:
            if persisted:
                observer.metrics.merge(persisted)
            record_sim_stats(observer.metrics, stats)
        return stats
    # Simulate.  Metrics go through a per-point registry so the disk entry
    # captures exactly this point's machine-level metrics; the bus and
    # profiler (cross-run by design) are shared directly.
    local = observer
    if want_metrics:
        local = Observer(
            bus=observer.bus,
            metrics=MetricsRegistry(),
            profiler=observer.profiler,
        )
    config = point_config(width, ports, mode, block_on_scalar_operand)
    stats = Machine(config, cached_trace(name, scale), observer=local).run()
    _SIMULATIONS_RUN += 1
    diskcache.store_stats(
        disk_key,
        stats,
        describe={
            "benchmark": name,
            "width": width,
            "ports": ports,
            "mode": mode,
            "scale": scale,
            "block_on_scalar_operand": block_on_scalar_operand,
        },
        metrics=local.metrics.to_dict() if want_metrics else None,
    )
    if want_metrics:
        observer.metrics.merge(local.metrics)
        record_sim_stats(observer.metrics, stats)
    return stats


# ---------------------------------------------------------------------------
# Memo management (used by the parallel runner and tests)
# ---------------------------------------------------------------------------


def prime_memo(key: PointKey, stats: SimStats) -> None:
    """Install a result computed elsewhere (e.g. by a worker peer)."""
    _MEMO.setdefault(key, stats)


def memo_contains(key: PointKey) -> bool:
    return key in _MEMO


def memo_get(key: PointKey) -> SimStats:
    """The master memo entry for ``key`` (callers must not mutate it)."""
    return _MEMO[key]


def clear_memo() -> None:
    """Drop the in-process layer (tests; the disk layer is untouched)."""
    _MEMO.clear()


def simulations_run() -> int:
    """How many actual simulations this process has executed."""
    return _SIMULATIONS_RUN


def label(ports: int, mode: str) -> str:
    """The paper's configuration label, e.g. ``2pIM``."""
    return f"{ports}p{mode}"
