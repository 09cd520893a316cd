"""Ablation studies on the design choices DESIGN.md calls out.

The paper fixes several parameters with one-line justifications (4-element
vector registers because the average vector length is ~8; a confidence
threshold of 2; 128 registers).  Each :class:`FigureSpec` in
:data:`ABLATIONS` sweeps one of those choices over the full benchmark
suite and reports the metrics that choice trades off.

All sweeps run on the paper's 4-way machine with one wide port (the V
configuration of Fig 11).  Each configuration sets the swept
``VectorConfig`` field as a grid point override, so the EXPERIMENTS.md
generator batches the sweeps through
:func:`repro.experiments.parallel.run_grid` with the figures.  At the
field's default the configuration carries no override: it is Fig 11's
own 4w1pV point, shared by every sweep's default column.  The sweeps are
not figures of the paper, so neither ``figures`` nor
:func:`repro.api.figure` runs them.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..pipeline.stats import SimStats
from .figures import Config, FigureSpec
from .runner import point_config

#: the plain 4w1pV point's vector config: a swept value equal to its
#: field here needs no override.
_DEFAULTS = point_config(4, 1, "V").vector


def _config(field: str, value: object) -> Config:
    """4w1pV with ``field`` set to ``value``; the plain configuration when
    that is the field's default."""
    if getattr(_DEFAULTS, field) == value:
        return (4, 1, "V")
    return (4, 1, "V", True, ((field, value),))


def _sweep(
    name: str,
    title: str,
    field: str,
    values: Tuple,
    columns: Callable[[object, SimStats], Dict[str, float]],
) -> FigureSpec:
    """A sweep of ``field`` over ``values``; a row is each value's
    ``columns(value, stats)``, in order."""

    def row(*stats: SimStats) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for value, st in zip(values, stats):
            out.update(columns(value, st))
        return out

    return FigureSpec(name, title, row, tuple(_config(field, value) for value in values))


def _vector_length(vl: int, st: SimStats) -> Dict[str, float]:
    """IPC as a function of elements per vector register.

    The paper picks 4 because the average vector length it measures is
    small (§4.1, ``paper_reference.STATISTICS["vector_length_int"]`` and
    ``["vector_length_fp"]``): longer registers overshoot loop ends, and
    shorter ones chain (and re-check) too often.
    """
    return {f"VL={vl}": st.ipc}


def _register_count(n: int, st: SimStats) -> Dict[str, float]:
    """IPC and allocation failures vs. vector register file size.

    §3.3 calls vector registers "one of the most critical resources";
    this sweep quantifies how quickly the mechanism starves below the
    paper's 128.
    """
    return {f"R={n}": st.ipc, f"fail@{n}": float(st.vreg_alloc_failures)}


def _confidence(t: int, st: SimStats) -> Dict[str, float]:
    """Stride-confidence threshold vs. IPC and misspeculation rate.

    Threshold 1 vectorizes on the second consistent instance (eager, more
    misspeculation); the paper's 2 needs three instances; higher values
    trade coverage for safety.
    """
    return {f"conf={t}": st.ipc, f"fail@{t}": float(st.validation_failures)}


def _damping(damped: SimStats, literal: SimStats) -> Dict[str, float]:
    """The TL failure-damping ladder (this reproduction's addition) on/off.

    Without damping, a spill slot that is stored and reloaded every
    iteration re-vectorizes after the minimum three instances, conflicts
    with the next store and squashes the pipeline, repeatedly — the
    pathology DESIGN.md §5 documents.  This ablation shows the squash
    counts and IPC with the paper's literal rule versus the damped one.
    """
    return {
        "ipc_damped": damped.ipc,
        "ipc_literal": literal.ipc,
        "squash_damped": float(damped.store_conflicts + damped.validation_failures),
        "squash_literal": float(literal.store_conflicts + literal.validation_failures),
    }


#: the ablation sweeps, in EXPERIMENTS.md order.
ABLATIONS: Dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        _sweep("ablation_vl", "Ablation: IPC vs vector register length (4-way 1pV)",
               "vector_length", (2, 4, 8), _vector_length),
        _sweep("ablation_regs", "Ablation: IPC / alloc failures vs vector register count",
               "num_registers", (8, 32, 128), _register_count),
        _sweep("ablation_conf", "Ablation: IPC / misspeculations vs TL confidence threshold",
               "confidence_threshold", (1, 2, 4), _confidence),
        FigureSpec("ablation_damping",
                   "Ablation: TL failure damping (ours) vs the paper's literal rule",
                   _damping, (_config("tl_damping", True), _config("tl_damping", False))),
    )
}
