"""One runner per figure/table of the paper's evaluation.

Every public function regenerates the data behind one figure of the paper
(see DESIGN.md §4 for the index) and returns it as
``{benchmark: {column: value}}`` dictionaries that
:func:`repro.analysis.reports.suite_rows` renders with INT/FP/TOTAL
average rows, matching the layout of the paper's charts.

Each figure also exposes a ``*_points`` enumerator naming every
simulation point it needs (empty for the trace-analysis figures), so a
driver can collect the whole batch up front and fan it out over
:func:`repro.experiments.parallel.run_grid`; the figure functions then
pull the results from the in-process memo.  Called directly (without a
pre-warmed batch), the functions still compute correctly — point by
point through :func:`run_point`.

The functions only *compute*; printing is left to the CLI, the
EXPERIMENTS.md generator (:mod:`repro.experiments.report`) and examples.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..workloads.suite import ALL_BENCHMARKS, SPEC_FP, SPEC_INT
from . import diskcache
from .parallel import GridPoint
from .runner import EXPERIMENT_SCALE, MODES, PORT_COUNTS, label, run_point

Rows = Dict[str, Dict[str, float]]
Points = List[GridPoint]


def _suite_points(scale: int, width: int = 4, ports: int = 1, mode: str = "V") -> Points:
    """One grid point per benchmark at a fixed configuration."""
    return [GridPoint(name, width, ports, mode, scale) for name in ALL_BENCHMARKS]


def fig01_points(scale: int = EXPERIMENT_SCALE) -> Points:
    """Trace analysis only — no timing simulations."""
    return []


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


#: every trace analysis behind Figs 1 and 3; one load of a trace answers
#: all of them.
_ANALYSES: Dict[str, Callable[..., Dict]] = {
    "stride_histogram": _stride_histogram,
    "vectorizability": _vectorizability,
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
    missing = {analysis: key}
    for other in _ANALYSES:
        if other == analysis:
            continue
        other_key = diskcache.analysis_key(other, name, scale, 0)
        if diskcache.load_analysis(other_key) is None:
            missing[other] = other_key
    from ..workloads import spec95

    with spec95.trace_scope(name, scale):
        trace = spec95.cached_trace(name, scale)
        computed = {each: _ANALYSES[each](trace) for each in missing}
    for each, each_key in missing.items():
        diskcache.store_analysis(each_key, computed[each])
    return computed[analysis]


def fig01_stride_distribution(scale: int = EXPERIMENT_SCALE) -> Rows:
    """Figure 1: stride distribution (element strides 0..9) per suite."""
    return {
        name: _trace_analysis("stride_histogram", name, scale)
        for name in ALL_BENCHMARKS
    }


def fig03_points(scale: int = EXPERIMENT_SCALE) -> Points:
    """Trace analysis only — no timing simulations."""
    return []


def fig03_vectorizable(scale: int = EXPERIMENT_SCALE) -> Rows:
    """Figure 3: % vectorizable instructions with unbounded resources.

    The fractions are taken from the cached counts with the operations of
    ``VectorizabilityResult.fraction``, so a warm run loads no analysis.
    """
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        counts = _trace_analysis("vectorizability", name, scale)
        total, loads, alu = counts["total"], counts["vector_loads"], counts["vector_alu"]
        out[name] = {
            "vectorizable": (loads + alu) / total if total else 0.0,
            "loads": loads / total if total else 0.0,
            "alu": alu / total if total else 0.0,
        }
    return out


def fig07_points(scale: int = EXPERIMENT_SCALE) -> Points:
    return [
        GridPoint(name, 4, 1, "V", scale, block)
        for name in ALL_BENCHMARKS
        for block in (True, False)
    ]


def fig07_scalar_blocking(scale: int = EXPERIMENT_SCALE) -> Rows:
    """Figure 7: IPC blocking (real) vs not blocking (ideal) on scalar
    operands, 4-way with 1 wide port and 128 vector registers."""
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        real = run_point(name, width=4, ports=1, mode="V", scale=scale)
        ideal = run_point(
            name, width=4, ports=1, mode="V", scale=scale,
            block_on_scalar_operand=False,
        )
        out[name] = {"real": real.ipc, "ideal": ideal.ipc}
    return out


def fig09_points(scale: int = EXPERIMENT_SCALE) -> Points:
    return _suite_points(scale, width=8)


def fig09_offsets(scale: int = EXPERIMENT_SCALE) -> Rows:
    """Figure 9: % of vector instructions created with a nonzero source
    offset, 8-way processor with 128 vector registers."""
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        st = run_point(name, width=8, ports=1, mode="V", scale=scale)
        frac = st.offset_instances / st.vector_instances if st.vector_instances else 0.0
        out[name] = {"offset_nonzero": frac}
    return out


def fig10_points(scale: int = EXPERIMENT_SCALE) -> Points:
    return _suite_points(scale)


def fig10_control_independence(scale: int = EXPERIMENT_SCALE) -> Rows:
    """Figure 10: % of the 100 instructions after a mispredicted branch
    whose work is reused from the vector datapath (4-way, 1 wide port)."""
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        st = run_point(name, width=4, ports=1, mode="V", scale=scale)
        out[name] = {"reused": st.cfi_reuse_fraction}
    return out


def fig11_points(width: int, scale: int = EXPERIMENT_SCALE) -> Points:
    """The full {1,2,4} ports x {noIM,IM,V} grid at one width (Fig 11/12)."""
    return [
        GridPoint(name, width, ports, mode, scale)
        for name in ALL_BENCHMARKS
        for ports in PORT_COUNTS
        for mode in MODES
    ]


def fig11_ipc(width: int, scale: int = EXPERIMENT_SCALE) -> Rows:
    """Figure 11: IPC for {1,2,4} ports x {noIM, IM, V} at one width."""
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        row = {}
        for ports in PORT_COUNTS:
            for mode in MODES:
                st = run_point(name, width=width, ports=ports, mode=mode, scale=scale)
                row[label(ports, mode)] = st.ipc
        out[name] = row
    return out


def fig12_points(width: int, scale: int = EXPERIMENT_SCALE) -> Points:
    return fig11_points(width, scale)


def fig12_port_occupancy(width: int, scale: int = EXPERIMENT_SCALE) -> Rows:
    """Figure 12: L1 data-port occupancy over the same grid as Fig 11."""
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        row = {}
        for ports in PORT_COUNTS:
            for mode in MODES:
                st = run_point(name, width=width, ports=ports, mode=mode, scale=scale)
                row[label(ports, mode)] = st.port_occupancy
        out[name] = row
    return out


def fig13_points(scale: int = EXPERIMENT_SCALE) -> Points:
    return _suite_points(scale)


def fig13_wide_bus(scale: int = EXPERIMENT_SCALE) -> Rows:
    """Figure 13: % of read lines contributing 1..4 useful words plus
    unused (speculative) accesses, 4-way with 1 wide port + vectorization."""
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        st = run_point(name, width=4, ports=1, mode="V", scale=scale)
        hist = dict(st.usefulness)
        out[name] = {
            "1pos": hist.get("1", 0.0),
            "2pos": hist.get("2", 0.0),
            "3pos": hist.get("3", 0.0),
            "4pos": hist.get("4", 0.0),
            "unused": hist.get("unused", 0.0),
        }
    return out


def fig14_points(scale: int = EXPERIMENT_SCALE) -> Points:
    return _suite_points(scale, width=8)


def fig14_validations(scale: int = EXPERIMENT_SCALE) -> Rows:
    """Figure 14: % of instructions turned into validation operations,
    8-way superscalar with one wide bus."""
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        st = run_point(name, width=8, ports=1, mode="V", scale=scale)
        out[name] = {"validations": st.validation_fraction}
    return out


def fig15_points(scale: int = EXPERIMENT_SCALE) -> Points:
    return _suite_points(scale, width=8)


def fig15_prediction_accuracy(scale: int = EXPERIMENT_SCALE) -> Rows:
    """Figure 15: average vector elements computed+used / computed-unused /
    not-computed per register, 8-way with 128 vector registers."""
    out: Rows = {}
    for name in ALL_BENCHMARKS:
        st = run_point(name, width=8, ports=1, mode="V", scale=scale)
        avg = st.avg_elements
        out[name] = {
            "comp_used": avg["computed_used"],
            "comp_not_used": avg["computed_unused"],
            "not_comp": avg["not_computed"],
        }
    return out


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

    Keys:

    * ``speedup_1pV_vs_4pnoIM`` — paper: a 4-way, one wide bus + dynamic
      vectorization is ~19% faster than 4 scalar buses without it.
    * ``speedup_1pV_vs_8way_4pnoIM`` — paper §6: ~3% faster than an 8-way
      with 4 scalar ports.
    * ``int_ipc_gain_over_IM`` / ``fp_ipc_gain_over_IM`` — paper: +21.2% /
      +8.1% over one wide bus without vectorization.
    * ``int_mem_reduction`` / ``fp_mem_reduction`` — paper: memory
      requests drop 15% / 20%.
    * ``int_validation_fraction`` / ``fp_validation_fraction`` — paper:
      28% / 23% of instructions become validations (8-way, one wide bus).
    """
    def avg_ipc(names, width, ports, mode):
        vals = [run_point(n, width, ports, mode, scale).ipc for n in names]
        return sum(vals) / len(vals)

    def total_mem(names, width, ports, mode):
        return sum(run_point(n, width, ports, mode, scale).memory_accesses for n in names)

    all_v = avg_ipc(ALL_BENCHMARKS, 4, 1, "V")
    return {
        "speedup_1pV_vs_4pnoIM": all_v / avg_ipc(ALL_BENCHMARKS, 4, 4, "noIM") - 1.0,
        "speedup_1pV_vs_8way_4pnoIM": all_v / avg_ipc(ALL_BENCHMARKS, 8, 4, "noIM") - 1.0,
        "int_ipc_gain_over_IM": avg_ipc(SPEC_INT, 4, 1, "V") / avg_ipc(SPEC_INT, 4, 1, "IM") - 1.0,
        "fp_ipc_gain_over_IM": avg_ipc(SPEC_FP, 4, 1, "V") / avg_ipc(SPEC_FP, 4, 1, "IM") - 1.0,
        "int_mem_reduction": 1.0 - total_mem(SPEC_INT, 4, 1, "V") / total_mem(SPEC_INT, 4, 1, "IM"),
        "fp_mem_reduction": 1.0 - total_mem(SPEC_FP, 4, 1, "V") / total_mem(SPEC_FP, 4, 1, "IM"),
        "int_validation_fraction": sum(
            run_point(n, 8, 1, "V", scale).validation_fraction
            for n in SPEC_INT
        ) / len(SPEC_INT),
        "fp_validation_fraction": sum(
            run_point(n, 8, 1, "V", scale).validation_fraction
            for n in SPEC_FP
        ) / len(SPEC_FP),
    }
