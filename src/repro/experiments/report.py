"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Usage::

    python -m repro.experiments.report [--scale N] [--out EXPERIMENTS.md]

The generator collects the grid points of every registered figure, every
ablation sweep and the headline claims, runs them as one
:func:`~repro.experiments.parallel.run_grid` batch (cached, over
``$REPRO_JOBS`` or one worker peer per CPU), and renders every table
from the in-process memo into a self-contained markdown report.  One
command on an empty cache regenerates the checked-in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import pathlib
from typing import Dict

from ..analysis import average_vector_length, format_table, mean, suite_rows
from ..workloads import SPEC_FP, SPEC_INT
from . import figures
from .parallel import GridReport, run_grid
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
from .registry import ABLATIONS, FIGURES
from .runner import EXPERIMENT_SCALE, run_point


def _avg(rows: Dict[str, Dict[str, float]], names, column: str) -> float:
    return mean([rows[n][column] for n in names if n in rows])


def build_report(scale: int = EXPERIMENT_SCALE) -> str:
    """Run every experiment as one grid batch and assemble the markdown
    report; raises :class:`repro.api.GridFailureError` if a point failed."""
    tables = [*FIGURES.values(), *ABLATIONS.values()]
    points = [point for spec in tables for point in spec.points(scale)]
    accounting = GridReport()
    run_grid(points + figures.headline_points(scale), report=accounting)
    if not accounting.ok:
        from ..api import GridFailureError

        raise GridFailureError(accounting)
    rows = {spec.name: spec.rows(scale) for spec in tables}

    lines = [
        "# EXPERIMENTS — paper vs. this reproduction",
        "",
        "Reproduction of *Speculative Dynamic Vectorization* (Pajuelo,",
        "González, Valero; ISCA 2002).  Every number below is regenerated by",
        "`python -m repro.experiments.report` (one command, from an empty",
        f"cache if need be) at scale {scale} dynamic instructions per",
        "benchmark per configuration.",
        "",
        "Absolute numbers cannot match the paper (their substrate was",
        "SimpleScalar/Alpha on real SPEC95 inputs over 100M instructions;",
        "ours is a from-scratch trace-driven model over synthetic SPEC95-like",
        "workloads — DESIGN.md §2/§5).  What must match, and is checked by",
        "CI's headline sign check and the integration tests, is",
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
    fig03, fig10 = rows["fig03"], rows["fig10"]
    fig14, fig15 = rows["fig14"], rows["fig15"]
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
        "Every figure of `python -m repro figures`, then the ablation sweeps",
        "(4-way 1pV, one `VectorConfig` field changed), with INT/FP/TOTAL",
        "average rows.",
        "",
    ]
    for spec in tables:
        table = rows[spec.name]
        headers = ["benchmark", *next(iter(table.values()))]
        lines += [
            f"### {spec.title}",
            "",
            "```",
            format_table(headers, suite_rows(table, SPEC_INT, SPEC_FP)),
            "```",
            "",
        ]
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
