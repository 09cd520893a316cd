"""Declarative registry of the paper's figures.

Each entry is a :class:`FigureSpec` binding a figure's identity (name,
title) to the two callables every driver needs:

* ``rows(scale)`` — compute the figure's data as
  ``{benchmark: {column: value}}`` (see :mod:`repro.experiments.figures`);
* ``points(scale)`` — enumerate the simulation grid points the
  figure needs, so a driver can batch them through
  :func:`repro.experiments.parallel.run_grid` before rendering.

The registry replaces the ad-hoc ``FIGURE_RUNNERS`` tuples the CLI used
to carry; ``python -m repro figures`` and :func:`repro.api.figure` both
resolve figures here.  Width-parametric figures (11/12) appear once per
width with the width bound via :func:`functools.partial`.

:data:`ABLATIONS` holds the ablation sweeps in the same shape, for the
EXPERIMENTS.md generator; they are not figures of the paper, so neither
``figures`` nor :func:`repro.api.figure` runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Tuple

from . import ablations as _ablations
from . import figures as _figures
from .parallel import GridPoint

Rows = Dict[str, Dict[str, float]]
RowsFn = Callable[..., Rows]
PointsFn = Callable[..., List[GridPoint]]


@dataclass(frozen=True)
class FigureSpec:
    """One figure of the paper's evaluation, as the drivers see it.

    ``rows`` and ``points`` take ``scale`` positionally —
    width-parametric figures are registered pre-bound.  ``analysis_only``
    marks figures computed purely from the instruction trace (their
    ``points`` enumerate no timing simulations).
    """

    name: str
    title: str
    rows: RowsFn = field(compare=False)
    points: PointsFn = field(compare=False)
    analysis_only: bool = False

    def describe(self) -> Dict[str, object]:
        """Stable JSON-friendly identity (used by ``--json`` listings)."""
        return {
            "name": self.name,
            "title": self.title,
            "analysis_only": self.analysis_only,
        }


def _spec(
    name: str,
    title: str,
    rows: RowsFn,
    points: PointsFn,
    analysis_only: bool = False,
) -> Tuple[str, FigureSpec]:
    return name, FigureSpec(name, title, rows, points, analysis_only)


#: every figure the reproduction regenerates, in paper order.
FIGURES: Dict[str, FigureSpec] = dict(
    (
        _spec(
            "fig01",
            "Figure 1: stride distribution",
            _figures.fig01_stride_distribution,
            _figures.fig01_points,
            analysis_only=True,
        ),
        _spec(
            "fig03",
            "Figure 3: vectorizable fraction",
            _figures.fig03_vectorizable,
            _figures.fig03_points,
            analysis_only=True,
        ),
        _spec(
            "fig07",
            "Figure 7: real vs ideal IPC",
            _figures.fig07_scalar_blocking,
            _figures.fig07_points,
        ),
        _spec(
            "fig09",
            "Figure 9: nonzero-offset instances",
            _figures.fig09_offsets,
            _figures.fig09_points,
        ),
        _spec(
            "fig10",
            "Figure 10: CFI reuse",
            _figures.fig10_control_independence,
            _figures.fig10_points,
        ),
        _spec(
            "fig11_4way",
            "Figure 11: IPC, 4-way",
            partial(_figures.fig11_ipc, 4),
            partial(_figures.fig11_points, 4),
        ),
        _spec(
            "fig11_8way",
            "Figure 11: IPC, 8-way",
            partial(_figures.fig11_ipc, 8),
            partial(_figures.fig11_points, 8),
        ),
        _spec(
            "fig12_4way",
            "Figure 12: occupancy, 4-way",
            partial(_figures.fig12_port_occupancy, 4),
            partial(_figures.fig12_points, 4),
        ),
        _spec(
            "fig12_8way",
            "Figure 12: occupancy, 8-way",
            partial(_figures.fig12_port_occupancy, 8),
            partial(_figures.fig12_points, 8),
        ),
        _spec(
            "fig13",
            "Figure 13: wide-bus usefulness",
            _figures.fig13_wide_bus,
            _figures.fig13_points,
        ),
        _spec(
            "fig14",
            "Figure 14: validation fraction",
            _figures.fig14_validations,
            _figures.fig14_points,
        ),
        _spec(
            "fig15",
            "Figure 15: element fates",
            _figures.fig15_prediction_accuracy,
            _figures.fig15_points,
        ),
    )
)


#: the ablation sweeps at their default values, in EXPERIMENTS.md order.
ABLATIONS: Dict[str, FigureSpec] = dict(
    (
        _spec(
            "ablation_vl",
            "Ablation: IPC vs vector register length (4-way 1pV)",
            lambda scale: _ablations.vector_length_sweep(scale=scale),
            lambda scale: _ablations.vector_length_points(scale=scale),
        ),
        _spec(
            "ablation_regs",
            "Ablation: IPC / alloc failures vs vector register count",
            lambda scale: _ablations.register_count_sweep(scale=scale),
            lambda scale: _ablations.register_count_points(scale=scale),
        ),
        _spec(
            "ablation_conf",
            "Ablation: IPC / misspeculations vs TL confidence threshold",
            lambda scale: _ablations.confidence_sweep(scale=scale),
            lambda scale: _ablations.confidence_points(scale=scale),
        ),
        _spec(
            "ablation_damping",
            "Ablation: TL failure damping (ours) vs the paper's literal rule",
            _ablations.damping_ablation,
            _ablations.damping_points,
        ),
    )
)


def figure_names() -> List[str]:
    """Registered figure names, in paper order."""
    return list(FIGURES)


def get_figure(name: str) -> FigureSpec:
    """The spec for ``name``; raises ``KeyError`` naming the known set."""
    try:
        return FIGURES[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; known: {', '.join(FIGURES)}"
        ) from None
