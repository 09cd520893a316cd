"""Ablation studies on the design choices DESIGN.md calls out.

The paper fixes several parameters with one-line justifications (4-element
vector registers because the average vector length is ~8; a confidence
threshold of 2; 128 registers).  Each function here sweeps one of those
choices over the full benchmark suite and reports the metrics that choice
trades off.

All sweeps run on the paper's 4-way machine with one wide port (the V
configuration of Fig 11).  Each sweep's points are grid points whose
``overrides`` set the swept ``VectorConfig`` field, enumerated by its
``*_points`` function the way each figure's are, so a caller can batch
them through :func:`repro.experiments.parallel.run_grid` with the
figures.  At the field's default the point carries no override: it is
Fig 11's own 4w1pV point, shared by every sweep's default column.
Called without a pre-warmed batch, a sweep computes point by point
through :func:`run_point`, as the figure functions do.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..pipeline.stats import SimStats
from ..workloads.suite import ALL_BENCHMARKS
from .parallel import GridPoint
from .runner import EXPERIMENT_SCALE, point_config, run_point

Rows = Dict[str, Dict[str, float]]
Points = List[GridPoint]

#: the plain 4w1pV point's vector config: a swept value equal to its
#: field here needs no override.
_DEFAULTS = point_config(4, 1, "V").vector


def _point(name: str, scale: int, field: str, value: object) -> GridPoint:
    """The 4w1pV point of ``name`` with ``field`` set to ``value``; the
    plain point when that is the field's default."""
    if getattr(_DEFAULTS, field) == value:
        return GridPoint(name, 4, 1, "V", scale)
    return GridPoint(name, 4, 1, "V", scale, overrides=((field, value),))


def _points(field: str, values: Tuple, scale: int) -> Points:
    return [
        _point(name, scale, field, value)
        for name in ALL_BENCHMARKS
        for value in values
    ]


def _run(name: str, scale: int, field: str, value: object) -> SimStats:
    return run_point(*_point(name, scale, field, value))


def vector_length_points(
    lengths: Tuple[int, ...] = (2, 4, 8), scale: int = EXPERIMENT_SCALE
) -> Points:
    return _points("vector_length", lengths, scale)


def vector_length_sweep(
    lengths: Tuple[int, ...] = (2, 4, 8), scale: int = EXPERIMENT_SCALE
) -> Rows:
    """IPC as a function of elements per vector register.

    The paper picks 4 because the average vector length it measures is
    small (§4.1, ``paper_reference.STATISTICS["vector_length_int"]`` and
    ``["vector_length_fp"]``): longer registers overshoot loop ends, and
    shorter ones chain (and re-check) too often.
    """
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        out[name] = {
            f"VL={vl}": _run(name, scale, "vector_length", vl).ipc
            for vl in lengths
        }
    return out


def register_count_points(
    counts: Tuple[int, ...] = (8, 32, 128), scale: int = EXPERIMENT_SCALE
) -> Points:
    return _points("num_registers", counts, scale)


def register_count_sweep(
    counts: Tuple[int, ...] = (8, 32, 128), scale: int = EXPERIMENT_SCALE
) -> Rows:
    """IPC and allocation failures vs. vector register file size.

    §3.3 calls vector registers "one of the most critical resources";
    this sweep quantifies how quickly the mechanism starves below the
    paper's 128.
    """
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        row: Dict[str, float] = {}
        for n in counts:
            stats = _run(name, scale, "num_registers", n)
            row[f"R={n}"] = stats.ipc
            row[f"fail@{n}"] = float(stats.vreg_alloc_failures)
        out[name] = row
    return out


def confidence_points(
    thresholds: Tuple[int, ...] = (1, 2, 4), scale: int = EXPERIMENT_SCALE
) -> Points:
    return _points("confidence_threshold", thresholds, scale)


def confidence_sweep(
    thresholds: Tuple[int, ...] = (1, 2, 4), scale: int = EXPERIMENT_SCALE
) -> Rows:
    """Stride-confidence threshold vs. IPC and misspeculation rate.

    Threshold 1 vectorizes on the second consistent instance (eager, more
    misspeculation); the paper's 2 needs three instances; higher values
    trade coverage for safety.
    """
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        row: Dict[str, float] = {}
        for t in thresholds:
            stats = _run(name, scale, "confidence_threshold", t)
            row[f"conf={t}"] = stats.ipc
            row[f"fail@{t}"] = float(stats.validation_failures)
        out[name] = row
    return out


def damping_points(scale: int = EXPERIMENT_SCALE) -> Points:
    return _points("tl_damping", (True, False), scale)


def damping_ablation(scale: int = EXPERIMENT_SCALE) -> Rows:
    """The TL failure-damping ladder (this reproduction's addition) on/off.

    Without damping, a spill slot that is stored and reloaded every
    iteration re-vectorizes after the minimum three instances, conflicts
    with the next store and squashes the pipeline, repeatedly — the
    pathology DESIGN.md §5 documents.  This ablation shows the squash
    counts and IPC with the paper's literal rule versus the damped one.
    """
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        damped = _run(name, scale, "tl_damping", True)
        literal = _run(name, scale, "tl_damping", False)
        out[name] = {
            "ipc_damped": damped.ipc,
            "ipc_literal": literal.ipc,
            "squash_damped": float(damped.store_conflicts + damped.validation_failures),
            "squash_literal": float(
                literal.store_conflicts + literal.validation_failures
            ),
        }
    return out
