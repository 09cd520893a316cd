"""Tests of the benchmark's own arithmetic and checks, at tiny scale.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import time
import types

import pytest

from perfbench import checks, harness, loadgen, probe, run, traced, workloads
from perfbench.probe import HostSpeed
from perfbench.spans import Recorder, Span, layer_self_times, load_worker_spans, self_times
from perfbench.summary import TAIL_BEYOND, tail

sys.path.insert(0, str(harness.SRC))


def _span(id, start, end, parent=None, name="x.y", pid=1):
    return Span(id, name, start, end, parent=parent, pid=pid)


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    root = _span(1, 0.0, 10.0, name="workload")
    a = _span(2, 1.0, 4.0, parent=1, name="diskcache.trace_load")
    a1 = _span(3, 2.0, 3.0, parent=2, name="functional.soa")
    b = _span(4, 3.0, 6.0, parent=1, name="pipeline.run")  # overlaps a
    late = _span(5, 9.0, 12.0, parent=1, name="analysis.s")  # runs past the root
    other_pid = _span(2, 0.0, 10.0, parent=1, pid=2)  # same id, another process
    selfs = self_times([root, a, a1, b, late, other_pid])
    assert selfs[(1, 1)] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs[(1, 2)] == pytest.approx(2.0)
    assert selfs[(1, 3)] == pytest.approx(1.0)
    assert selfs[(1, 4)] == pytest.approx(3.0)
    assert selfs[(2, 2)] == pytest.approx(10.0)


def test_layer_self_times_add_up_to_the_wall():
    root = _span(1, 0.0, 10.0, name="workload")
    spans = [
        root,
        _span(2, 0.0, 2.0, parent=1, name="setup.import"),
        _span(3, 0.5, 1.0, parent=2, name="setup.import_numpy"),
        _span(4, 2.0, 9.0, parent=1, name="experiments.grid"),
        _span(5, 2.5, 8.5, parent=4, name="pipeline.run"),
        _span(6, 3.0, 4.0, parent=5, name="diskcache.stats_load"),
        _span(7, 0.0, 5.0, parent=None, name="pipeline.run", pid=9),  # a pool worker
    ]
    layers = layer_self_times(spans, root)
    assert layers == pytest.approx(
        {"setup": 2.0, "experiments": 1.0, "pipeline": 5.0, "diskcache": 1.0, "other": 1.0}
    )
    assert sum(layers.values()) == pytest.approx(root.duration)


def test_recorder_nests_spans_and_forked_workers_flush_only_their_own(tmp_path):
    class Layer:
        def work(self, n):
            return n + 1

    recorder = Recorder(tmp_path / "spans")
    recorder.wrap(Layer, "work", "pipeline.run")
    with recorder.root_span() as root:
        assert Layer().work(1) == 2
        with recorder.span("experiments.grid") as grid:
            Layer().work(2)
        context = multiprocessing.get_context("fork")
        child = context.Process(target=Layer().work, args=(3,))
        child.start()
        child.join(timeout=30)
    assert child.exitcode == 0
    names = [(span.name, span.parent) for span in recorder.spans]
    assert names == [
        ("pipeline.run", root.id), ("pipeline.run", grid.id),
        ("experiments.grid", root.id), ("workload", None),
    ]
    workers = load_worker_spans(tmp_path / "spans")
    assert [(span.name, span.pid, span.parent) for span in workers] == [
        ("pipeline.run", child.pid, None)
    ]


def test_wrap_rebinds_functions_imported_by_name():
    package = types.ModuleType("repro_perfbench_probe")
    importer = types.ModuleType("repro_perfbench_probe.user")
    package.fn = lambda: 1
    importer.fn = package.fn
    sys.modules.update({package.__name__: package, importer.__name__: importer})
    try:
        recorder = Recorder(harness.WORK / "unused")
        recorder.wrap(package, "fn", "workloads.build")
        assert importer.fn() == 1 and package.fn() == 1
        assert [span.name for span in recorder.spans] == ["workloads.build"] * 2
    finally:
        del sys.modules[package.__name__], sys.modules[importer.__name__]


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1080, 99.0, 10), (100, 90.0, 10), (11, 100.0 / 11, 10), (10, 100.0, 0), (1, 100.0, 0)],
)
def test_tail_reports_the_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    values = list(range(1, n + 1))
    result = tail(values[::-1])
    assert result.percentile == pytest.approx(percentile)
    assert result.beyond == beyond
    assert result.samples == n
    assert result.value == values[n - beyond - 1]
    if n > TAIL_BEYOND:
        assert sum(value > result.value for value in values) >= TAIL_BEYOND


# -- host-speed probe ----------------------------------------------------------


def test_the_factor_is_the_median_probe_near_the_interval():
    speed = HostSpeed()
    ref = probe.REFERENCE_S
    # (start stamp, wall seconds, CPU seconds)
    speed.samples = [(0.0, ref, ref), (10.0, 2 * ref, ref), (10.4, 4 * ref, ref),
                     (11.0, 3 * ref, 2 * ref), (30.0, 9 * ref, 9 * ref)]
    assert speed.factor(10.2, 10.8) == pytest.approx(3.0)
    assert speed.factor(10.2, 10.8, cpu=True) == pytest.approx(1.0)
    # No probe within the window: the nearest one stands in.
    assert speed.factor(20.0, 21.0) == pytest.approx(3.0)


def test_a_paused_child_is_timed_without_its_pauses(tmp_path):
    speed = HostSpeed()
    busy = "import time\nwhile time.process_time() < 0.6: pass"
    start = time.perf_counter()
    child = harness.run_child([harness.PYTHON, "-c", busy], {}, tmp_path / "out", speed)
    elapsed = time.perf_counter() - start
    assert child.returncode == 0
    # Two probes bracket the command and more were taken while it was
    # stopped; its wall time leaves those pauses out, but it cannot be
    # shorter than the CPU time it used.
    assert len(speed.samples) >= 4
    assert 0.95 * child.cpu_s <= child.wall_s < elapsed - sum(s[1] for s in speed.samples[1:-1])
    assert child.ref_wall_s == pytest.approx(child.wall_s / child.factor)


# -- output checks ------------------------------------------------------------


def _figure_set(rows):
    figure = {
        "schema": "repro.figure/v1", "ok": True, "error": None,
        "figure": {"name": "fig14", "title": "t", "analysis_only": False}, "rows": rows,
    }
    return {
        "schema": "repro.figure.set/v1", "ok": True, "error": None,
        "grid": {"unique": 24, "simulated": 24}, "figures": {"fig14": figure},
    }


def _outputs(reference=None):
    return checks.Outputs(checks.Tally(), reference)


def test_a_perturbed_figure_row_counts_as_failed():
    rows = {"swim": {"validations": 0.25}, "gcc": {"validations": 0.31}}
    perturbed = json.loads(json.dumps(rows))
    perturbed["gcc"]["validations"] += 1e-12

    # Against the reference of the running model.
    reference = {"fig14": checks.digest(rows), "headline": ""}
    clean = _outputs(reference)
    checks.check_figure_set(_figure_set(rows), clean)
    assert clean.tally.failed == 0 and clean.tally.attempted > 24
    pinned = _outputs(reference)
    checks.check_figure_set(_figure_set(perturbed), pinned)
    assert pinned.tally.failed > 0
    assert "fig14" in pinned.tally.problems[0]

    # Without a reference, against the run's earlier commands.
    unpinned = _outputs()
    checks.check_figure_set(_figure_set(rows), unpinned)
    checks.check_figure_set(_figure_set(rows), unpinned)
    assert unpinned.tally.failed == 0
    checks.check_figure_set(_figure_set(perturbed), unpinned)
    assert unpinned.tally.failed > 0


def test_a_model_without_a_reference_can_run_correctly():
    outputs = _outputs()
    checks.check_figure_set(_figure_set({"swim": {"validations": 0.5}}), outputs)
    assert outputs.tally.failed == 0
    assert "no reference for this model" in outputs.notes()[0]


def test_a_missing_figure_counts_as_failed():
    rows = {"swim": {"validations": 0.25}}
    outputs = _outputs({"fig14": checks.digest(rows), "fig15": "", "headline": ""})
    checks.check_figure_set(_figure_set(rows), outputs)
    assert outputs.tally.failed == 1 and "fig15" in outputs.tally.problems[0]


def test_an_invalid_envelope_counts_as_failed():
    outputs = _outputs()
    payload = _figure_set({})
    del payload["error"]
    checks.check_figure_set(payload, outputs)
    assert outputs.tally.failed == 1


def _answer(status, payload):
    return loadgen.Answer(0.0, 0.001, status, json.dumps(payload).encode())


def _job(state, result=None):
    return {
        "schema": "repro.service.job/v2", "ok": True, "error": None,
        "job": {"id": "j1", "kind": "headline", "state": state, "result": result},
    }


def test_an_invalid_job_envelope_counts_as_failed():
    claims = {"int_validation_fraction": 0.1}
    headline = {
        "schema": "repro.headline/v1", "ok": True, "error": None,
        "scale": checks.SCALE, "sampled": False, "claims": claims,
    }
    job = (_answer(202, _job("queued")), _answer(200, _job("done", headline)))
    outputs = _outputs()
    assert workloads.check_service_answers([], [], job, outputs) == claims
    assert outputs.tally.failed == 0

    broken = _job("queued")
    del broken["job"]
    outputs = _outputs()
    job = (_answer(202, broken), _answer(200, _job("done", headline)))
    assert workloads.check_service_answers([], [], job, outputs) is None
    assert outputs.tally.failed == 1 and "/headline submit" in outputs.tally.problems[0]


def test_reference_names_every_figure_and_the_headline_of_the_model():
    reference = checks.load_reference()
    assert reference["scale"] == checks.SCALE
    entry = reference["models"][checks.model_digest()]
    assert len(entry) == 13 and len(entry["headline"]) == 64


# -- environment and inputs -----------------------------------------------------


def test_the_scrubbed_environment_holds_in_a_child(tmp_path, monkeypatch):
    for name in harness.SCRUBBED:
        monkeypatch.setenv(name, "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    monkeypatch.setenv("PYTHONSTARTUP", "/elsewhere/startup.py")
    env = harness.pinned_env(tmp_path, tmp_path / "cache")
    shown = subprocess.run(
        [harness.PYTHON, "-c", "import json, os, sys; print(json.dumps("
         "[dict(os.environ), sys.flags.dont_write_bytecode, sys.pycache_prefix]))"],
        env=env, capture_output=True, text=True, check=True,
    )
    child, dont_write, prefix = json.loads(shown.stdout)
    assert not set(harness.SCRUBBED) & set(child)
    assert "PYTHONSTARTUP" not in child
    assert child["REPRO_CACHE_DIR"] == str(tmp_path / "cache")
    assert child["XDG_CACHE_HOME"].startswith(str(tmp_path))
    assert child["TMPDIR"].startswith(str(tmp_path))
    assert child["PYTHONHASHSEED"] == "0"
    assert dont_write == 1 and prefix == str(harness.WORK / "pycache")


def test_the_request_log_depends_only_on_the_seed():
    points = [{"benchmark": name} for name in "abc"]
    log = loadgen.request_log(7, points)
    assert log == loadgen.request_log(7, points)
    assert log != loadgen.request_log(8, points)
    assert sorted(p["benchmark"] for p in log) == sorted("abc" * loadgen.REPEATS)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_the_runner_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (harness.ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [harness.PYTHON, "perfbench/run.py", "--workload", "figures-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
