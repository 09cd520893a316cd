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
  figures``, the EXPERIMENTS.md generator, a worker peer) skips simulation
  entirely for points any earlier process already ran.

:func:`run_point` returns a **private copy** of the cached stats: callers
may freely mutate the result (e.g. normalize counters in place) without
corrupting what later callers — or other figures sharing the same grid
point — observe.

Both layers hold stats only.  Runs here are unobserved; metrics are
derived from the stats by :mod:`repro.api`, which is why they never
depend on which layer answered.

For whole-grid fan-out over worker peers, see
:mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from functools import lru_cache
from typing import Dict, Tuple

from ..pipeline.config import MachineConfig, make_config
from ..pipeline.stats import SimStats
from . import diskcache

#: default dynamic instruction budget per benchmark for experiments; large
#: enough for steady-state statistics, small enough for a pure-Python
#: cycle-level model (DESIGN.md §5.3).
EXPERIMENT_SCALE = 12_000

#: the paper's port counts and memory modes (Fig 11/12 grid).
PORT_COUNTS = (1, 2, 4)
MODES = ("noIM", "IM", "V")

#: ``VectorConfig`` field/value pairs a point sets on top of its preset.
Overrides = Tuple[Tuple[str, object], ...]

#: grid coordinates -> master SimStats (the in-process memo layer):
#: ``(benchmark, width, ports, mode, scale, block_on_scalar_operand,
#: overrides)``.
PointKey = Tuple[str, int, int, str, int, bool, Overrides]
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


def simulator():
    """``(Machine, cached_trace)``: what a cache miss runs.

    Imported on first need, so a process whose points are all cache hits
    never loads the cycle model or the workload generators.  Long-lived
    processes call it up front (a worker peer while it warms), so no
    request they serve pays the import.
    """
    from ..pipeline.machine import Machine
    from ..workloads.spec95 import cached_trace

    return Machine, cached_trace


def point_config(
    width: int,
    ports: int,
    mode: str,
    block_on_scalar_operand: bool = True,
    overrides: Overrides = (),
) -> MachineConfig:
    """The fully-resolved config for one grid point (shared with workers).

    ``overrides`` go through :func:`dataclasses.replace`, so a pair that
    names no ``VectorConfig`` field raises instead of running the preset.
    """
    config = make_config(width, ports, mode)
    config.vector.block_on_scalar_operand = block_on_scalar_operand
    if overrides:
        config.vector = replace(config.vector, **dict(overrides))
    return config


def _copy_stats(stats: SimStats) -> SimStats:
    """A structurally-fresh copy sharing no mutable state with the master."""
    return replace(stats, usefulness=dict(stats.usefulness))


@lru_cache(maxsize=64, typed=True)
def _shape_fingerprint(
    width: int,
    ports: int,
    mode: str,
    block_on_scalar_operand: bool,
    overrides: Overrides,
) -> str:
    """The rendered config fingerprint of one grid shape, derived once
    per shape.

    A point's config depends only on these five coordinates — 36 shapes
    on the paper's grid, plus one per ablation value — so the memo is
    bounded by the config domain, not by request input such as
    ``scale``.  ``typed`` keeps ``1`` and ``True`` apart: they hash alike
    but render differently in the key's JSON.
    """
    return diskcache.config_fingerprint(
        point_config(width, ports, mode, block_on_scalar_operand, overrides)
    )


def point_cache_key(point: PointKey) -> str:
    """The disk cache's stats key for one grid point.

    The one derivation of a point's content-hash identity: the entry
    :func:`compute_point` writes, the grid's parent-side disk probe and
    the service's dedup key all name it here.  Byte-identical to
    ``diskcache.stats_key(name, scale, 0, point_config(...))``.
    """
    name, width, ports, mode, scale, block_on_scalar_operand, overrides = point
    fingerprint = _shape_fingerprint(
        width, ports, mode, block_on_scalar_operand, overrides
    )
    return diskcache.fingerprint_stats_key(name, scale, 0, fingerprint)


def run_point(
    name: str,
    width: int = 4,
    ports: int = 1,
    mode: str = "V",
    scale: int = EXPERIMENT_SCALE,
    block_on_scalar_operand: bool = True,
    overrides: Overrides = (),
) -> SimStats:
    """Simulate benchmark ``name`` on one machine-configuration point.

    Results are memoized in-process and persisted to the on-disk cache;
    every call returns a fresh :class:`SimStats` copy, so mutating a
    returned object never affects other callers.
    """
    key = (name, width, ports, mode, scale, block_on_scalar_operand, overrides)
    stats = _MEMO.get(key)
    if stats is None:
        stats = _MEMO[key] = compute_point(key)
    return _copy_stats(stats)


def compute_point(key: PointKey) -> SimStats:
    """Disk-cache lookup + (on miss) one simulation for one grid point.

    Shared by :func:`run_point` and the grid's worker peers; bypasses the
    in-process memo on purpose (the callers own that layer).
    """
    global _SIMULATIONS_RUN
    name, width, ports, mode, scale, block_on_scalar_operand, overrides = key
    _fire_fault(
        "grid.point", benchmark=name, width=width, ports=ports, mode=mode, scale=scale
    )
    disk_key = point_cache_key(key)
    stats = diskcache.load_stats_entry(disk_key)
    if stats is not None:
        return stats
    Machine, cached_trace = simulator()
    config = point_config(width, ports, mode, block_on_scalar_operand, overrides)
    stats = Machine(config, cached_trace(name, scale)).run()
    _SIMULATIONS_RUN += 1
    describe = {
        "benchmark": name,
        "width": width,
        "ports": ports,
        "mode": mode,
        "scale": scale,
        "block_on_scalar_operand": block_on_scalar_operand,
    }
    if overrides:
        describe["overrides"] = dict(overrides)
    diskcache.store_stats(disk_key, stats, describe=describe)
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
