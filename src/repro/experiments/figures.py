"""The paper's figures, each declared once.

Every figure of the paper's evaluation (see DESIGN.md §4 for the index)
is one :class:`FigureSpec` in :data:`FIGURES`: its name and title, the
machine configurations every benchmark runs at, and a ``row`` function
that turns one benchmark's stats at those configurations into its
columns.  ``spec.points(scale)`` lists the grid points a driver batches
through :func:`repro.experiments.parallel.run_grid`; ``spec.rows(scale)``
reads those same points back (memo hits after the batch) as
``{benchmark: {column: value}}`` dictionaries that
:func:`repro.analysis.reports.suite_rows` renders with INT/FP/TOTAL
average rows.  Both derive from the one declaration, so a table cannot
read a point its batch lacks.

The specs only *compute*; printing is left to the CLI, the EXPERIMENTS.md
generator (:mod:`repro.experiments.report`) and examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..pipeline.stats import SimStats
from ..workloads.suite import ALL_BENCHMARKS
from . import diskcache
from .parallel import GridPoint
from .runner import EXPERIMENT_SCALE, MODES, PORT_COUNTS, label, run_point

Rows = Dict[str, Dict[str, float]]
Points = List[GridPoint]

#: one machine configuration of a table: a :class:`GridPoint` without its
#: benchmark and scale, ``(width, ports, mode[, block_on_scalar_operand[,
#: overrides]])``.
Config = Tuple


@dataclass(frozen=True)
class FigureSpec:
    """One table of the evaluation, as every driver sees it.

    ``row`` gets one :class:`SimStats` per entry of ``configs``, in
    order, and returns that benchmark's columns.  A spec declaring no
    configuration is ``analysis_only``: computed from the instruction
    trace alone, its ``row`` gets ``(benchmark, scale)``.
    """

    name: str
    title: str
    row: Callable[..., Dict[str, float]] = field(compare=False)
    configs: Tuple[Config, ...] = ()

    @property
    def analysis_only(self) -> bool:
        return not self.configs

    def _points(self, name: str, scale: int) -> Points:
        return [GridPoint(name, *config[:3], scale, *config[3:]) for config in self.configs]

    def points(self, scale: int = EXPERIMENT_SCALE) -> Points:
        """Every simulation the table reads, benchmark by benchmark."""
        return [point for name in ALL_BENCHMARKS for point in self._points(name, scale)]

    def rows(self, scale: int = EXPERIMENT_SCALE) -> Rows:
        """``{benchmark: {column: value}}``, from the points of
        :meth:`points` (memo hits once a batch ran them)."""
        if self.analysis_only:
            return {name: self.row(name, scale) for name in ALL_BENCHMARKS}
        return {
            name: self.row(*(run_point(*point) for point in self._points(name, scale)))
            for name in ALL_BENCHMARKS
        }

    def describe(self) -> Dict[str, object]:
        """Stable JSON-friendly identity (used by ``--json`` listings)."""
        return {
            "name": self.name,
            "title": self.title,
            "analysis_only": self.analysis_only,
        }


def _stride_histogram(trace) -> Dict[str, float]:
    from ..analysis.stride_profile import STRIDE_BUCKETS, stride_histogram

    hist = stride_histogram(trace)
    return {bucket: hist[bucket] for bucket in STRIDE_BUCKETS}


def _vectorizability(trace) -> Dict[str, int]:
    from ..analysis.vectorizability import vectorizable_fraction

    result = vectorizable_fraction(trace)
    return {
        "total": result.total,
        "vector_loads": result.vector_loads,
        "vector_alu": result.vector_alu,
    }


def _vector_length(trace) -> Dict[str, int]:
    from ..analysis.vector_length import average_vector_length

    result = average_vector_length(trace)
    return {"runs": result.runs, "total": sum(result.run_lengths)}


#: every trace analysis behind Figs 1 and 3 and §4.1's average vector
#: length; one load of a trace answers all of them.
_ANALYSES: Dict[str, Callable[..., Dict]] = {
    "stride_histogram": _stride_histogram,
    "vectorizability": _vectorizability,
    "vector_length": _vector_length,
}


def _trace_analysis(analysis: str, name: str, scale: int) -> Dict:
    """One of :data:`_ANALYSES` for benchmark ``name``, through the disk
    cache.

    The result is a pure function of the trace and the ``analysis``
    sources (:func:`diskcache.analysis_key`), so a warm run reads one
    small JSON file instead of decoding and re-scanning the trace.  A
    miss loads the trace once, computes and stores every analysis the
    cache lacks (so Fig 3 reads what Fig 1's misses wrote), and releases
    the trace again unless the caller already held it.
    """
    key = diskcache.analysis_key(analysis, name, scale, 0)
    result = diskcache.load_analysis(key)
    if result is not None:
        return result
    missing = _missing_analyses(name, scale, skip=analysis)
    missing[analysis] = key
    return _compute_analyses(name, scale, missing)[analysis]


def _missing_analyses(name: str, scale: int, skip: str = "") -> Dict[str, str]:
    """``{analysis: cache key}`` of the analyses the cache lacks."""
    missing = {}
    for analysis in _ANALYSES:
        if analysis != skip:
            key = diskcache.analysis_key(analysis, name, scale, 0)
            if diskcache.load_analysis(key) is None:
                missing[analysis] = key
    return missing


def _compute_analyses(name: str, scale: int, missing: Dict[str, str]) -> Dict[str, Dict]:
    """Compute and store the ``missing`` analyses from one load of the
    trace (the resident one, if any, which stays resident)."""
    from ..workloads import spec95

    with spec95.trace_scope(name, scale):
        trace = spec95.cached_trace(name, scale)
        computed = {each: _ANALYSES[each](trace) for each in missing}
    for each, each_key in missing.items():
        diskcache.store_analysis(each_key, computed[each])
    return computed


def prime_analyses(name: str, scale: int) -> None:
    """Compute and store every analysis the cache lacks for ``name`` at
    ``scale``.  A serial grid calls this while it still holds the trace
    (``run_grid``'s ``with_trace``), so the Fig 1 / Fig 3 rows after it
    build no trace again."""
    missing = _missing_analyses(name, scale)
    if missing:
        _compute_analyses(name, scale, missing)


def vector_lengths(scale: int = EXPERIMENT_SCALE) -> Rows:
    """§4.1: the count and total length of each benchmark's
    constant-stride load runs (:func:`~repro.analysis.average_vector_length`)."""
    return {name: _trace_analysis("vector_length", name, scale) for name in ALL_BENCHMARKS}


def _stride_distribution(name: str, scale: int) -> Dict[str, float]:
    """Figure 1: stride distribution (element strides 0..9)."""
    return _trace_analysis("stride_histogram", name, scale)


def _vectorizable(name: str, scale: int) -> Dict[str, float]:
    """Figure 3: % vectorizable instructions with unbounded resources.

    The fractions are taken from the cached counts with the operations of
    ``VectorizabilityResult.fraction``, so a warm run loads no analysis.
    """
    counts = _trace_analysis("vectorizability", name, scale)
    total, loads, alu = counts["total"], counts["vector_loads"], counts["vector_alu"]
    return {
        "vectorizable": (loads + alu) / total if total else 0.0,
        "loads": loads / total if total else 0.0,
        "alu": alu / total if total else 0.0,
    }


def _scalar_blocking(real: SimStats, ideal: SimStats) -> Dict[str, float]:
    """Figure 7: IPC blocking (real) vs not blocking (ideal) on scalar
    operands, 4-way with 1 wide port and 128 vector registers."""
    return {"real": real.ipc, "ideal": ideal.ipc}


def _offsets(st: SimStats) -> Dict[str, float]:
    """Figure 9: % of vector instructions created with a nonzero source
    offset, 8-way processor with 128 vector registers."""
    frac = st.offset_instances / st.vector_instances if st.vector_instances else 0.0
    return {"offset_nonzero": frac}


def _control_independence(st: SimStats) -> Dict[str, float]:
    """Figure 10: % of the 100 instructions after a mispredicted branch
    whose work is reused from the vector datapath (4-way, 1 wide port)."""
    return {"reused": st.cfi_reuse_fraction}


def _port_mode_grid(name: str, title: str, width: int, metric: str) -> FigureSpec:
    """Figures 11 (IPC) and 12 (L1 data-port occupancy): one column per
    {1,2,4} ports x {noIM, IM, V} at one width."""
    grid = [(ports, mode) for ports in PORT_COUNTS for mode in MODES]

    def row(*stats: SimStats) -> Dict[str, float]:
        return {label(*cell): getattr(st, metric) for cell, st in zip(grid, stats)}

    return FigureSpec(name, title, row, tuple((width, *cell) for cell in grid))


def _wide_bus(st: SimStats) -> Dict[str, float]:
    """Figure 13: % of read lines contributing 1..4 useful words plus
    unused (speculative) accesses, 4-way with 1 wide port + vectorization."""
    hist = dict(st.usefulness)
    return {
        "1pos": hist.get("1", 0.0),
        "2pos": hist.get("2", 0.0),
        "3pos": hist.get("3", 0.0),
        "4pos": hist.get("4", 0.0),
        "unused": hist.get("unused", 0.0),
    }


def _validations(st: SimStats) -> Dict[str, float]:
    """Figure 14: % of instructions turned into validation operations,
    8-way superscalar with one wide bus."""
    return {"validations": st.validation_fraction}


def _prediction_accuracy(st: SimStats) -> Dict[str, float]:
    """Figure 15: average vector elements computed+used / computed-unused /
    not-computed per register, 8-way with 128 vector registers."""
    avg = st.avg_elements
    return {
        "comp_used": avg["computed_used"],
        "comp_not_used": avg["computed_unused"],
        "not_comp": avg["not_computed"],
    }


_4WAY_V, _8WAY_V = (4, 1, "V"), (8, 1, "V")

#: every figure the reproduction regenerates, in paper order.
FIGURES: Dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        FigureSpec("fig01", "Figure 1: stride distribution", _stride_distribution),
        FigureSpec("fig03", "Figure 3: vectorizable fraction", _vectorizable),
        FigureSpec("fig07", "Figure 7: real vs ideal IPC", _scalar_blocking,
                   (_4WAY_V, (4, 1, "V", False))),
        FigureSpec("fig09", "Figure 9: nonzero-offset instances", _offsets, (_8WAY_V,)),
        FigureSpec("fig10", "Figure 10: CFI reuse", _control_independence, (_4WAY_V,)),
        _port_mode_grid("fig11_4way", "Figure 11: IPC, 4-way", 4, "ipc"),
        _port_mode_grid("fig11_8way", "Figure 11: IPC, 8-way", 8, "ipc"),
        _port_mode_grid("fig12_4way", "Figure 12: occupancy, 4-way", 4, "port_occupancy"),
        _port_mode_grid("fig12_8way", "Figure 12: occupancy, 8-way", 8, "port_occupancy"),
        FigureSpec("fig13", "Figure 13: wide-bus usefulness", _wide_bus, (_4WAY_V,)),
        FigureSpec("fig14", "Figure 14: validation fraction", _validations, (_8WAY_V,)),
        FigureSpec("fig15", "Figure 15: element fates", _prediction_accuracy, (_8WAY_V,)),
    )
}


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


def headline_points(scale: int = EXPERIMENT_SCALE) -> Points:
    """Every simulation behind the §1/§4/§6 scalar claims."""
    points = []
    for name in ALL_BENCHMARKS:
        points.append(GridPoint(name, 4, 1, "V", scale))
        points.append(GridPoint(name, 4, 4, "noIM", scale))
        points.append(GridPoint(name, 8, 4, "noIM", scale))
        points.append(GridPoint(name, 4, 1, "IM", scale))
        points.append(GridPoint(name, 8, 1, "V", scale))
    return points


def headline_claims(scale: int = EXPERIMENT_SCALE) -> Dict[str, float]:
    """The scalar claims of §1/§4/§6, measured on this reproduction.

    Keyed and ordered as ``repro.headline/v1``; each claim is an entry of
    :data:`~repro.experiments.paper_reference.STATISTICS`, which says
    what it measures and what the paper reports.
    """
    from .paper_reference import CLAIMS, STATISTICS

    return {key: STATISTICS[key].measure(scale) for key in CLAIMS}
