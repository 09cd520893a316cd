"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Usage (after the benchmark suite has populated ``benchmarks/results/``)::

    python -m repro.experiments.report [--scale N] [--out EXPERIMENTS.md]

The generator re-reads the persisted figure tables, measures the headline
claims at the same scale, and writes a self-contained markdown report.
It is how the checked-in EXPERIMENTS.md is produced.
"""

from __future__ import annotations

import argparse
import pathlib
from typing import Dict

from ..analysis import average_vector_length, mean
from ..workloads import SPEC_FP, SPEC_INT
from . import figures
from .paper_reference import (
    CFI_REUSE_INT,
    EIGHT_WAY_1PORT_IPC,
    ELEMENTS,
    HEADLINE,
    SHAPES,
    SMALL_STRIDE_FRACTION,
    VECTORIZABLE_FRACTION,
    same_sign,
)
from .runner import EXPERIMENT_SCALE, run_point

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"

_FIGURE_FILES = [
    ("Figure 1", "fig01", "stride distribution per benchmark"),
    ("Figure 3", "fig03", "vectorizable fraction, unbounded resources"),
    ("Figure 7", "fig07", "IPC real (blocking) vs ideal"),
    ("Figure 9", "fig09", "nonzero-offset vector instances"),
    ("Figure 10", "fig10", "post-mispredict reuse (CFI)"),
    ("Figure 11 (4-way)", "fig11_4way", "IPC grid"),
    ("Figure 11 (8-way)", "fig11_8way", "IPC grid"),
    ("Figure 12 (4-way)", "fig12_4way", "port occupancy grid"),
    ("Figure 12 (8-way)", "fig12_8way", "port occupancy grid"),
    ("Figure 13", "fig13", "wide-bus useful words + unused accesses"),
    ("Figure 14", "fig14", "validation instruction fraction"),
    ("Figure 15", "fig15", "vector element fates"),
    ("Ablation", "ablation_vl", "vector length sweep"),
    ("Ablation", "ablation_regs", "register count sweep"),
    ("Ablation", "ablation_conf", "confidence threshold sweep"),
    ("Ablation", "ablation_damping", "TL damping vs literal rule"),
]


def _avg(rows: Dict[str, Dict[str, float]], names, column: str) -> float:
    return mean([rows[n][column] for n in names if n in rows])


def build_report(scale: int = EXPERIMENT_SCALE) -> str:
    """Measure the summary statistics and assemble the markdown report."""
    lines = [
        "# EXPERIMENTS — paper vs. this reproduction",
        "",
        "Reproduction of *Speculative Dynamic Vectorization* (Pajuelo,",
        "González, Valero; ISCA 2002).  Every number below is regenerated by",
        "`pytest benchmarks/ --benchmark-only` (full tables land in",
        "`benchmarks/results/`); this file was produced by",
        f"`python -m repro.experiments.report` at scale {scale} dynamic",
        "instructions per benchmark per configuration.",
        "",
        "Absolute numbers cannot match the paper (their substrate was",
        "SimpleScalar/Alpha on real SPEC95 inputs over 100M instructions;",
        "ours is a from-scratch trace-driven model over synthetic SPEC95-like",
        "workloads — DESIGN.md §2/§5).  What must match, and is checked by",
        "`benchmarks/bench_headline_claims.py` and the integration tests, is",
        "the *shape*: who wins, roughly by how much, and where the mechanism",
        "pays or costs.",
        "",
        "## Headline claims (abstract / §1 / §4.3 / §6)",
        "",
        "| claim | paper | measured | direction |",
        "|---|---|---|---|",
    ]
    measured = figures.headline_claims(scale)
    for key, paper_value in HEADLINE.items():
        got = measured[key]
        verdict = "reproduced" if same_sign(got, paper_value) else "**flipped** (DESIGN.md §5.9)"
        lines.append(f"| `{key}` | {paper_value:+.1%} | {got:+.1%} | {verdict} |")

    # Figure-level summary rows.
    fig03 = figures.fig03_vectorizable(scale)
    fig10 = figures.fig10_control_independence(scale)
    fig14 = figures.fig14_validations(scale)
    fig15 = figures.fig15_prediction_accuracy(scale)
    int_vec = _avg(fig03, SPEC_INT, "vectorizable")
    fp_vec = _avg(fig03, SPEC_FP, "vectorizable")
    int_reuse = _avg(fig10, SPEC_INT, "reused")
    int_val = _avg(fig14, SPEC_INT, "validations")
    fp_val = _avg(fig14, SPEC_FP, "validations")
    all_names = list(SPEC_INT) + list(SPEC_FP)
    computed = _avg(fig15, all_names, "comp_used") + _avg(fig15, all_names, "comp_not_used")
    validated = _avg(fig15, all_names, "comp_used")
    from ..workloads.spec95 import cached_trace

    int_avl = mean(
        [average_vector_length(cached_trace(n, scale)).average for n in SPEC_INT]
    )
    fp_avl = mean(
        [average_vector_length(cached_trace(n, scale)).average for n in SPEC_FP]
    )
    eight_noim = mean(
        [run_point(n, 8, 1, "noIM", scale).ipc for n in all_names]
    )
    eight_im = mean([run_point(n, 8, 1, "IM", scale).ipc for n in all_names])
    stores = [run_point(n, 4, 1, "V", scale) for n in all_names]
    int_conflict = mean(
        [
            s.store_conflicts / s.committed_stores if s.committed_stores else 0.0
            for s, n in zip(stores, all_names)
            if n in SPEC_INT
        ]
    )
    fp_conflict = mean(
        [
            s.store_conflicts / s.committed_stores if s.committed_stores else 0.0
            for s, n in zip(stores, all_names)
            if n in SPEC_FP
        ]
    )

    lines += [
        "",
        "## Figure-level statistics the paper states in its text",
        "",
        "| statistic | paper | measured |",
        "|---|---|---|",
        f"| vectorizable fraction, SpecInt (Fig 3) | {VECTORIZABLE_FRACTION['int']:.0%} | {int_vec:.0%} |",
        f"| vectorizable fraction, SpecFP (Fig 3) | {VECTORIZABLE_FRACTION['fp']:.0%} | {fp_vec:.0%} |",
        f"| validation fraction, SpecInt (Fig 14) | {HEADLINE['int_validation_fraction']:.0%} | {int_val:.0%} |",
        f"| validation fraction, SpecFP (Fig 14) | {HEADLINE['fp_validation_fraction']:.0%} | {fp_val:.0%} |",
        f"| post-mispredict reuse, SpecInt (Fig 10) | {CFI_REUSE_INT:.0%} | {int_reuse:.0%} |",
        f"| elements computed per register (Fig 15) | {ELEMENTS['computed']:.2f} | {computed:.2f} |",
        f"| elements validated per register (Fig 15) | {ELEMENTS['validated']:.2f} | {validated:.2f} |",
        f"| 8-way 1-port IPC, noIM -> IM (Fig 11) | {EIGHT_WAY_1PORT_IPC['noIM']:.2f} -> {EIGHT_WAY_1PORT_IPC['IM']:.2f} (+22%) | {eight_noim:.2f} -> {eight_im:.2f} ({eight_im/eight_noim-1:+.0%}) |",
        f"| conflicting stores, SpecInt (§3.6) | 4.5% | {int_conflict:.1%} |",
        f"| conflicting stores, SpecFP (§3.6) | 2.5% | {fp_conflict:.1%} |",
        f"| small strides (<4 elems), SpecInt (§2) | {SMALL_STRIDE_FRACTION['int']:.1%} | see fig01 table |",
        f"| small strides (<4 elems), SpecFP (§2) | {SMALL_STRIDE_FRACTION['fp']:.1%} | see fig01 table |",
        f"| average vector length, SpecInt (§4.1) | 8.84 | {int_avl:.1f} (synthetic loops are more regular than SPEC's) |",
        f"| average vector length, SpecFP (§4.1) | 7.37 | {fp_avl:.1f} (same caveat) |",
        "",
        "## Qualitative shapes checked by the test-suite",
        "",
    ]
    lines += [f"* {shape}" for shape in SHAPES]

    lines += [
        "",
        "## Full tables",
        "",
        "Regenerated into `benchmarks/results/` by the benchmark harness;",
        "reproduced verbatim below.",
        "",
    ]
    for label, stem, caption in _FIGURE_FILES:
        path = RESULTS_DIR / f"{stem}.txt"
        if not path.exists():
            lines.append(f"### {label} — {caption}\n\n*(not yet generated; run the benchmark suite)*\n")
            continue
        lines.append(f"### {label} — {caption}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=EXPERIMENT_SCALE)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    text = build_report(args.scale)
    pathlib.Path(args.out).write_text(text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
