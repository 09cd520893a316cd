"""The EXPERIMENTS.md generator and the paper-reference tables."""

import inspect
import pathlib
import sys

from repro.experiments import report
from repro.experiments.paper_reference import (
    HEADLINE,
    SHAPES,
    VECTORIZABLE_FRACTION,
    same_sign,
)
from repro.experiments.registry import ABLATIONS, FIGURES
from repro.experiments.report import build_report

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_paper_reference_is_complete():
    assert len(HEADLINE) == 8
    assert all(isinstance(v, float) for v in HEADLINE.values())
    assert 0 < VECTORIZABLE_FRACTION["int"] < 1
    assert len(SHAPES) == 10


def test_same_sign():
    assert same_sign(0.1, 0.5)
    assert same_sign(-0.1, -0.5)
    assert not same_sign(-0.1, 0.5)


def test_build_report_structure(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    text = build_report(scale=2_500)
    assert text.startswith("# EXPERIMENTS")
    assert "## Headline claims" in text
    assert "int_validation_fraction" in text
    assert "## Full tables" in text
    # Every figure and ablation table is rendered from the grid, in
    # registry order, each ending in the suite averages.
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
    benchmarks = ROOT / "benchmarks"
    assert not [
        module for module in list(sys.modules.values())
        if benchmarks in pathlib.Path(getattr(module, "__file__", None) or "/").parents
    ]
    source = inspect.getsource(report)
    assert "RESULTS_DIR" not in source and '"benchmarks"' not in source
