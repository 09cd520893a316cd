"""The paper's statistics: each number it states, and how we measure it.

Only numbers the paper states in its text (or that are unambiguous from
the figures' axes) are recorded; bar charts without printed values are
described by their qualitative *shape* instead.  :data:`STATISTICS` is
the one table: a :class:`Statistic` per headline claim (:data:`CLAIMS`)
and per figure-level statistic (:data:`FIGURE_STATISTICS`), pairing the
paper's value with the one function that measures ours from cached
stats, figure rows and trace analyses.  ``figures.headline_claims`` and
the EXPERIMENTS.md generator only read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Sequence

from ..analysis.reports import mean
from ..workloads.suite import ALL_BENCHMARKS, SPEC_FP, SPEC_INT
from .figures import FIGURES, vector_lengths
from .runner import run_point

#: §1 / §4.3 / §6 scalar claims.
HEADLINE: Dict[str, float] = {
    "speedup_1pV_vs_4pnoIM": 0.19,
    "speedup_1pV_vs_8way_4pnoIM": 0.03,
    "int_ipc_gain_over_IM": 0.212,
    "fp_ipc_gain_over_IM": 0.081,
    "int_mem_reduction": 0.15,
    "fp_mem_reduction": 0.20,
    "int_validation_fraction": 0.28,
    "fp_validation_fraction": 0.23,
}

#: §2: fraction of strided loads below the 4-word line size.
SMALL_STRIDE_FRACTION = {"int": 0.979, "fp": 0.813}

#: Figure 3 (text): vectorizable fraction with unbounded resources.
VECTORIZABLE_FRACTION = {"int": 0.47, "fp": 0.51}

#: Figure 15 (text): average computed / validated elements per register.
ELEMENTS = {"computed": 3.75, "validated": 1.75}

#: Figure 10 (text): reuse among the 100 post-mispredict instructions.
CFI_REUSE_INT = 0.17

#: §3.6 (text): stores whose address falls in a vector register range.
STORE_CONFLICT_RATE = {"int": 0.045, "fp": 0.025}

#: Figure 11 discussion (text): 8-way 1-port average IPC, noIM -> IM.
EIGHT_WAY_1PORT_IPC = {"noIM": 1.77, "IM": 2.16}

#: Qualitative shapes asserted by tests and reported in EXPERIMENTS.md.
SHAPES = (
    "stride 0 and stride 1 dominate both suites (Fig 1)",
    "SpecFP is more vectorizable than the SpecInt average (Fig 3)",
    "real IPC <= ideal IPC, with a small gap (Fig 7)",
    "nonzero-offset vector instances are a small minority (Fig 9)",
    "post-mispredict reuse is nonzero wherever mispredictions occur (Fig 10)",
    "IPC ordering V >= IM >= noIM on the suite average at every port count (Fig 11)",
    "port occupancy falls IM -> V for heavy validators (Fig 12)",
    "multi-word reads are a significant fraction on the wide bus (Fig 13)",
    "validation fraction is a quarter-ish of instructions (Fig 14)",
    "validated < computed elements: over-speculation is real (Fig 15)",
)


def same_sign(measured: float, paper: float) -> bool:
    """Direction check used for the headline claims."""
    return (measured > 0) == (paper > 0)


Measure = Callable[[int], float]


@dataclass(frozen=True)
class Statistic:
    """One number the paper states, beside the function measuring ours.

    ``label`` and ``section`` name its row of EXPERIMENTS.md (two entries
    with one label share a row, as the change from the first to the
    second); ``fmt`` renders the measured value there and ``note`` follows.
    """

    key: str
    label: str
    section: str
    paper: float
    measure: Measure
    fmt: str = ".0%"
    note: str = ""


def _ipc(names: Sequence[str], width: int, ports: int, mode: str, scale: int) -> float:
    return mean(run_point(n, width, ports, mode, scale).ipc for n in names)


def _gain_over(names: Sequence[str], width: int, ports: int, mode: str) -> Measure:
    """4-way 1pV's mean IPC over a baseline's, minus one."""
    return lambda scale: (
        _ipc(names, 4, 1, "V", scale) / _ipc(names, width, ports, mode, scale) - 1.0)


def _columns(rows: Callable[[int], Dict], names: Sequence[str], *columns: str) -> Measure:
    """The sum over ``columns`` of their suite means in a figure's rows."""

    def measure(scale: int) -> float:
        table = rows(scale)
        return sum(mean(table[n][column] for n in names) for column in columns)

    return measure


def _suite(
    suite: str, title: str, names: Sequence[str], vector_length: float, note: str
) -> Iterable[Statistic]:
    """The statistics the paper states once per suite."""

    def memory_reduction(scale: int) -> float:
        def total(mode: str) -> int:
            return sum(run_point(n, 4, 1, mode, scale).memory_accesses for n in names)

        return 1.0 - total("V") / total("IM")

    def store_conflicts(scale: int) -> float:
        stats = [run_point(n, 4, 1, "V", scale) for n in names]
        return mean(s.store_conflicts / s.committed_stores if s.committed_stores else 0.0
                    for s in stats)

    def small_strides(scale: int) -> float:
        # Inferred definition: §2 quotes a share of *strided* loads, taken
        # here over element strides 0..9 of the suite's mean Fig 1 histogram.
        from ..analysis.stride_profile import merge_histograms, small_stride_fraction

        rows = FIGURES["fig01"].rows(scale)
        return small_stride_fraction(merge_histograms(rows[n] for n in names))

    def mean_run_length(scale: int) -> float:
        runs = vector_lengths(scale)
        return mean(runs[n]["total"] / runs[n]["runs"] if runs[n]["runs"] else 0.0
                    for n in names)

    yield Statistic(f"{suite}_ipc_gain_over_IM", f"4-way 1pV over 1pIM, {title}", "§4.3",
                    HEADLINE[f"{suite}_ipc_gain_over_IM"], _gain_over(names, 4, 1, "IM"))
    yield Statistic(f"{suite}_mem_reduction", f"memory requests saved, {title}", "§4.3",
                    HEADLINE[f"{suite}_mem_reduction"], memory_reduction)
    yield Statistic(f"{suite}_validation_fraction", f"validation fraction, {title}", "Fig 14",
                    HEADLINE[f"{suite}_validation_fraction"],
                    _columns(FIGURES["fig14"].rows, names, "validations"))
    yield Statistic(f"vectorizable_{suite}", f"vectorizable fraction, {title}", "Fig 3",
                    VECTORIZABLE_FRACTION[suite],
                    _columns(FIGURES["fig03"].rows, names, "vectorizable"))
    yield Statistic(f"store_conflicts_{suite}", f"conflicting stores, {title}", "§3.6",
                    STORE_CONFLICT_RATE[suite], store_conflicts, ".1%")
    yield Statistic(f"small_strides_{suite}", f"small strides (<4 elems), {title}", "§2",
                    SMALL_STRIDE_FRACTION[suite], small_strides, ".1%")
    yield Statistic(f"vector_length_{suite}", f"average vector length, {title}", "§4.1",
                    vector_length, mean_run_length, ".1f", note)


def _entries() -> Iterable[Statistic]:
    yield Statistic("speedup_1pV_vs_4pnoIM", "4-way 1pV over 4 scalar ports", "§1",
                    HEADLINE["speedup_1pV_vs_4pnoIM"], _gain_over(ALL_BENCHMARKS, 4, 4, "noIM"))
    yield Statistic("speedup_1pV_vs_8way_4pnoIM", "4-way 1pV over an 8-way 4pnoIM", "§6",
                    HEADLINE["speedup_1pV_vs_8way_4pnoIM"],
                    _gain_over(ALL_BENCHMARKS, 8, 4, "noIM"))
    # §4.1: "the average vector length for our benchmarks is relatively
    # small: 8.84 for SpecInt and 7.37 for SpecFP applications."
    yield from _suite("int", "SpecInt", SPEC_INT, 8.84,
                      "(synthetic loops are more regular than SPEC's)")
    yield from _suite("fp", "SpecFP", SPEC_FP, 7.37, "(same caveat)")
    yield Statistic("cfi_reuse_int", "post-mispredict reuse, SpecInt", "Fig 10", CFI_REUSE_INT,
                    _columns(FIGURES["fig10"].rows, SPEC_INT, "reused"))
    fig15 = FIGURES["fig15"].rows
    yield Statistic("elements_computed", "elements computed per register", "Fig 15",
                    ELEMENTS["computed"],
                    _columns(fig15, ALL_BENCHMARKS, "comp_used", "comp_not_used"), ".2f")
    yield Statistic("elements_validated", "elements validated per register", "Fig 15",
                    ELEMENTS["validated"], _columns(fig15, ALL_BENCHMARKS, "comp_used"), ".2f")
    for mode in ("noIM", "IM"):
        yield Statistic(f"ipc_8way_1port_{mode}", "8-way 1-port IPC, noIM -> IM", "Fig 11",
                        EIGHT_WAY_1PORT_IPC[mode],
                        lambda scale, mode=mode: _ipc(ALL_BENCHMARKS, 8, 1, mode, scale), ".2f")


#: every statistic, keyed as ``repro.headline/v1`` or perfbench names it.
STATISTICS: Dict[str, Statistic] = {entry.key: entry for entry in _entries()}

#: the headline claims, in ``repro.headline/v1`` order.
CLAIMS = tuple(HEADLINE)

#: the rows of EXPERIMENTS.md's "Figure-level statistics" table, in order.
FIGURE_STATISTICS = (
    "vectorizable_int", "vectorizable_fp", "int_validation_fraction", "fp_validation_fraction",
    "cfi_reuse_int", "elements_computed", "elements_validated",
    "ipc_8way_1port_noIM", "ipc_8way_1port_IM", "store_conflicts_int", "store_conflicts_fp",
    "small_strides_int", "small_strides_fp", "vector_length_int", "vector_length_fp",
)
