"""Traces, run metrics and warm figures, from the command line.

    PYTHONPATH=src python -m pytest smoke/test_observability.py
"""

from __future__ import annotations

import json

from conftest import repro

TURB3D = ("turb3d", "--width", "8", "--ports", "2", "--scale", "4000")


def test_trace_events_match_the_stats(tmp_path):
    # `trace` exits 1 if any per-kind event count disagrees with the
    # SimStats counter it mirrors; the JSONL must hold the promised kinds.
    out = tmp_path / "trace.jsonl"
    repro("trace", *TURB3D, "--events", "tl,validation,squash", "--output", str(out))
    kinds = [json.loads(line)["kind"] for line in out.read_text().splitlines()]
    assert {"tl.promote", "validate.fail", "squash.coherence"} <= set(kinds)
    stats = json.loads(repro("run", *TURB3D, "--json").stdout)["stats"]
    assert kinds.count("validate.fail") == stats["validation_failures"]


def test_run_metrics_follow_the_stats(tmp_path):
    # `run --json` derives its metrics from the stats, so it prints the
    # same bytes on an entry written by a `--json` run and on one written
    # by a plain run.
    run = ("run", "li", "--scale", "1500")
    a = {"REPRO_CACHE_DIR": str(tmp_path / "cache-a")}
    b = {"REPRO_CACHE_DIR": str(tmp_path / "cache-b")}
    first = repro(*run, "--json", **a).stdout
    repro(*run, **b)
    assert repro(*run, "--json", **b).stdout == first


def test_warm_figures_answer_the_same(tmp_path):
    # Figs 1 and 3 are trace analyses kept in the cache's analysis
    # section.  A cold run, a warm run on the same cache and a run after
    # that section is cleared must print the same figures; the grid
    # block counts cache hits, so it is left out.
    cache = {"REPRO_CACHE_DIR": str(tmp_path / "analysis-cache")}

    def figures() -> str:
        payload = json.loads(repro(
            "figures", "--only", "fig01", "fig03", "--scale", "1500", "--jobs", "1",
            "--json", **cache,
        ).stdout)
        return json.dumps(payload["figures"], sort_keys=True)

    cold = figures()
    assert figures() == cold, "warm figures differ from cold"
    repro("cache", "clear", "--section", "analysis", **cache)
    assert figures() == cold, "rebuilt figures differ from cold"
