"""The EXPERIMENTS.md generator and the paper-reference tables."""

import inspect
import pathlib
import sys

from repro.experiments import report
from repro.experiments.paper_reference import (
    CLAIMS,
    FIGURE_STATISTICS,
    HEADLINE,
    SHAPES,
    STATISTICS,
    VECTORIZABLE_FRACTION,
    same_sign,
)
from repro.experiments.ablations import ABLATIONS
from repro.experiments.figures import FIGURES
from repro.experiments.report import build_report

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_paper_reference_is_complete():
    assert len(HEADLINE) == 8
    assert all(isinstance(v, float) for v in HEADLINE.values())
    assert 0 < VECTORIZABLE_FRACTION["int"] < 1
    assert len(SHAPES) == 10


def test_one_table_holds_every_statistic():
    assert CLAIMS == tuple(HEADLINE)
    assert len(FIGURE_STATISTICS) == len(set(FIGURE_STATISTICS)) == 15
    # Fig 14's validation rows are the two validation claims, not copies.
    assert set(CLAIMS) & set(FIGURE_STATISTICS) == {
        "int_validation_fraction", "fp_validation_fraction",
    }
    assert set(STATISTICS) == set(CLAIMS) | set(FIGURE_STATISTICS)
    assert all(STATISTICS[key].paper == HEADLINE[key] for key in CLAIMS)
    assert STATISTICS["vectorizable_int"].paper == VECTORIZABLE_FRACTION["int"]
    # The report renders the table; it states no paper value itself.
    source = inspect.getsource(report)
    for literal in ("8.84", "7.37", "4.5%", "2.5%", "+22%"):
        assert literal not in source, literal


def test_same_sign():
    assert same_sign(0.1, 0.5)
    assert same_sign(-0.1, -0.5)
    assert not same_sign(-0.1, 0.5)


def _benchmark_modules():
    """Names of the imported modules that live under ``benchmarks/``."""
    benchmarks = ROOT / "benchmarks"
    return [
        name for name, module in list(sys.modules.items())
        if benchmarks in pathlib.Path(getattr(module, "__file__", None) or "/").parents
    ]


def test_build_report_structure(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    # Tier-1 collects benchmarks/ too: set its modules aside, so that any
    # the report imports shows up below.
    for name in _benchmark_modules():
        monkeypatch.delitem(sys.modules, name)
    text = build_report(scale=2_500)
    assert text.startswith("# EXPERIMENTS")
    assert "## Headline claims" in text
    assert "int_validation_fraction" in text
    assert "## Full tables" in text
    # Every figure and ablation table is rendered from the grid, in
    # declaration order, each ending in the suite averages.
    tables = [*FIGURES.values(), *ABLATIONS.values()]
    assert len(tables) == 16
    sections = text.split("\n### ")[1:]
    assert [section.split("\n")[0] for section in sections] == [
        spec.title for spec in tables
    ]
    for section in sections:
        body = section.split("```")[1].strip().splitlines()
        assert body[0].split()[0] == "benchmark"
        assert [row.split()[0] for row in body[-3:]] == ["INT", "FP", "TOTAL"]
    assert "not yet generated" not in text
    # The report reads no file the retired benchmark harness wrote.
    assert not _benchmark_modules()
    source = inspect.getsource(report)
    assert "RESULTS_DIR" not in source and '"benchmarks"' not in source


def test_warm_report_builds_no_trace(monkeypatch):
    """Every statistic reads cached stats and analyses: once the disk
    cache is warm, a process rendering the report interprets no program."""
    from repro.experiments import runner
    from repro.workloads import spec95

    monkeypatch.setenv("REPRO_JOBS", "2")
    build_report(scale=2_500)
    # What a fresh process holds: no memo, no resident trace.
    runner.clear_memo()
    for trace_id in spec95.resident_traces():
        spec95.release_trace(*trace_id)
    calls = []
    real = spec95.run_program
    monkeypatch.setattr(
        spec95, "run_program", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs)
    )
    build_report(scale=2_500)
    assert calls == []
