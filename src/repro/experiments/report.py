"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Usage::

    python -m repro.experiments.report [--scale N] [--out EXPERIMENTS.md]

The generator collects the grid points of every figure, every
ablation sweep and the headline claims, runs them as one
:func:`~repro.experiments.parallel.run_grid` batch (cached, over
``$REPRO_JOBS`` or one worker peer per CPU), and renders every table
from the in-process memo into a self-contained markdown report.  One
command on an empty cache regenerates the checked-in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import itertools
import pathlib
from typing import List

from ..analysis import format_table, suite_rows
from ..workloads import SPEC_FP, SPEC_INT
from .ablations import ABLATIONS
from .figures import FIGURES, headline_points
from .parallel import GridReport, run_grid
from .paper_reference import CLAIMS, FIGURE_STATISTICS, SHAPES, STATISTICS, Statistic, same_sign
from .runner import EXPERIMENT_SCALE


def _paper(entry: Statistic) -> str:
    """The paper's value, with the digits the paper prints."""
    return f"{100 * entry.paper:g}%" if entry.fmt.endswith("%") else f"{entry.paper:g}"


def _cell(texts: List[str], values: List[float]) -> str:
    """One value, or a pair as the change from the first to the second."""
    if len(values) == 1:
        return texts[0]
    (before, after), (low, high) = texts, values
    return f"{before} -> {after} ({high / low - 1:+.0%})"


def _figure_rows(scale: int) -> List[str]:
    """The "Figure-level statistics" rows; entries sharing a label share
    a row."""
    lines = []
    entries = [STATISTICS[key] for key in FIGURE_STATISTICS]
    for label, group in itertools.groupby(entries, key=lambda entry: entry.label):
        group = list(group)
        paper = _cell([_paper(e) for e in group], [e.paper for e in group])
        values = [e.measure(scale) for e in group]
        measured = _cell([format(v, e.fmt) for v, e in zip(values, group)], values)
        note = group[0].note and f" {group[0].note}"
        lines.append(f"| {label} ({group[0].section}) | {paper} | {measured}{note} |")
    return lines


def build_report(scale: int = EXPERIMENT_SCALE) -> str:
    """Run every experiment as one grid batch and assemble the markdown
    report; raises :class:`repro.api.GridFailureError` if a point failed."""
    tables = [*FIGURES.values(), *ABLATIONS.values()]
    points = [point for spec in tables for point in spec.points(scale)]
    accounting = GridReport()
    run_grid(points + headline_points(scale), report=accounting)
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
    for key in CLAIMS:
        paper, got = STATISTICS[key].paper, STATISTICS[key].measure(scale)
        verdict = "reproduced" if same_sign(got, paper) else "**flipped** (DESIGN.md §5.9)"
        lines.append(f"| `{key}` | {paper:+.1%} | {got:+.1%} | {verdict} |")

    lines += [
        "",
        "## Figure-level statistics the paper states in its text",
        "",
        "| statistic | paper | measured |",
        "|---|---|---|",
        *_figure_rows(scale),
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
