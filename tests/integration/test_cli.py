"""The ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro.__main__ import main
from repro.experiments import diskcache


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "swim" in out and "gcc" in out


def test_run_benchmark(capsys):
    assert main(["run", "ijpeg", "--mode", "V", "--scale", "2500"]) == 0
    out = capsys.readouterr().out
    assert "IPC=" in out
    assert "vector:" in out


def test_run_rejects_unknown_benchmark(capsys):
    assert main(["run", "mcf", "--scale", "2500"]) == 2


def test_figures_subset(capsys):
    assert main(["figures", "--scale", "2500", "--only", "fig14"]) == 0
    out = capsys.readouterr().out
    assert "Figure 14" in out
    assert "TOTAL" in out


def test_figures_rejects_unknown(capsys):
    assert main(["figures", "--only", "fig99"]) == 2


def test_headline(capsys):
    assert main(["headline", "--scale", "2500"]) == 0
    out = capsys.readouterr().out
    assert "int_validation_fraction" in out


def test_run_json_emits_versioned_schema(capsys):
    assert main(["run", "ijpeg", "--scale", "2500", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.run/v1"
    assert payload["point"]["benchmark"] == "ijpeg"
    assert payload["stats"]["committed"] == 2500
    assert payload["metrics"]["sim.committed"]["data"] == 2500


def test_figures_json(capsys):
    assert main(["figures", "--scale", "2500", "--only", "fig14", "--json",
                 "--jobs", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.figure.set/v1"
    assert payload["ok"] is True and payload["error"] is None
    assert payload["figures"]["fig14"]["schema"] == "repro.figure/v1"
    assert "swim" in payload["figures"]["fig14"]["rows"]


def test_headline_json(capsys):
    assert main(["headline", "--scale", "2500", "--json", "--jobs", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.headline/v1"
    assert "int_validation_fraction" in payload["claims"]


def test_trace_emits_jsonl_events(capsys):
    args = ["trace", "turb3d", "--width", "8", "--ports", "2",
            "--scale", "4000", "--events", "validation,squash"]
    assert main(args) == 0
    captured = capsys.readouterr()
    events = [json.loads(line) for line in captured.out.splitlines()]
    assert events, "a V-mode trace must emit events"
    kinds = {event["kind"] for event in events}
    assert kinds <= {"validate.pass", "validate.fail",
                     "squash.coherence", "flush.branch"}
    assert "validate.fail" in kinds
    assert "emitted" in captured.err  # accounting goes to stderr


def test_trace_limit_and_output_file(tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    args = ["trace", "turb3d", "--width", "8", "--ports", "2",
            "--scale", "4000", "--limit", "7", "--output", str(out_file)]
    assert main(args) == 0
    capsys.readouterr()
    lines = out_file.read_text().splitlines()
    assert len(lines) == 7
    json.loads(lines[0])


def test_trace_rejects_unknown_event_filter(capsys):
    args = ["trace", "li", "--scale", "2500", "--events", "bogus"]
    assert main(args) == 2
    assert "unknown event filter" in capsys.readouterr().err


def test_trace_rejects_unknown_benchmark(capsys):
    assert main(["trace", "mcf", "--scale", "2500"]) == 2


@pytest.mark.parametrize(
    "args",
    [["figures", "--jobs", "0"], ["trace", "li", "--limit", "0"]],
    ids=["--jobs", "--limit"],
)
def test_zero_positive_flags_are_rejected(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_cache_info_breaks_down_sections(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["cache", "info"]) == 0
    labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert labels == [
        "root", "enabled", "stats", "traces", "soa", "corpus", "campaigns", "total",
    ]


def test_cache_section_choices_are_the_cache_sections(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for section in diskcache._SECTIONS:
        assert main(["cache", "clear", "--section", section]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["cache", "clear", "--section", "checkpoint"])
    assert exc.value.code == 2
    offered = capsys.readouterr().err.split("choose from", 1)[1]
    assert re.findall(r"\w+", offered) == list(diskcache._SECTIONS)


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])
