"""Simulator-throughput (KIPS) benchmark — the repo's perf trajectory.

Unlike ``python -m repro.experiments.report`` (which regenerates the
*paper's* tables), this benchmark times the simulator itself: thousand
simulated instructions per CPU-second (KIPS) for one representative
scalar-mode run and one V-mode run.  Results are written machine-readably to ``BENCH_perf.json``
at the repository root so successive PRs can track the trend.

The main section is the cycle model's raw throughput on the 12k
experiment scale (the hot-loop trajectory).  Plus a **profile** section: per-pipeline-stage wall-clock and
simulated-cycle attribution for each exact point, collected by
:class:`repro.observe.StageProfiler` (see docs/OBSERVABILITY.md).

``--check`` turns the harness into a regression guard for CI: it
re-measures the exact points and fails (exit 1) if the fresh
``min_speedup`` falls more than ``--tolerance`` (default 25%, CI hosts
are noisy) below the value recorded in ``BENCH_perf.json``.

``--observe-check`` guards the observability layer's when-off cost: it
A/B-measures each exact point plain vs with an empty
:class:`repro.observe.Observer` in the same process and fails if the
tracing-off run is more than ``--observe-tolerance`` (default 3%)
slower.

Timing uses :func:`time.process_time` (CPU time), not wall clock: the
simulator is single-threaded and allocation-bound, so CPU time measures
exactly the work the optimization targets, while wall clock on shared /
steal-prone hosts (small cloud VMs) swings by 2x between runs and would
drown the signal.  Best-of-``ROUNDS`` further rejects transient slowdowns
(interrupts, frequency shifts).

``BASELINE_KIPS`` pins the throughput measured on the pre-optimization
code of the PR that introduced this file (same machine, same harness);
``speedup`` in the JSON is current/baseline.  Re-run with::

    PYTHONPATH=src python benchmarks/bench_perf.py

Runs use fresh :class:`~repro.pipeline.machine.Machine` instances on a
pre-built functional trace, so the number isolates the timing model's hot
loop (the target of the optimization work) from trace generation and any
result caching.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.observe import MetricsRegistry, Observer, StageProfiler  # noqa: E402
from repro.pipeline.config import make_config  # noqa: E402
from repro.pipeline.machine import Machine  # noqa: E402
from repro.workloads.spec95 import cached_trace  # noqa: E402

#: dynamic instructions per timed run.
SCALE = 12_000
#: timed configurations: label -> (benchmark, width, ports, mode).
POINTS = {
    "scalar_noIM": ("compress", 4, 1, "noIM"),
    "scalar_IM": ("compress", 4, 1, "IM"),
    "vector_V": ("swim", 4, 1, "V"),
}
#: best-of repetitions per configuration.
ROUNDS = 5

#: KIPS measured on the pre-optimization code (recorded in the same PR
#: that added the hot-loop work; see docs/PERFORMANCE.md).  Median of
#: nine best-of-5 harness runs against the seed tree, measured with
#: ``time.process_time`` exactly as ``measure_point`` does.
BASELINE_KIPS = {
    "scalar_noIM": 54.4,
    "scalar_IM": 53.6,
    "vector_V": 37.5,
}

RESULT_PATH = REPO_ROOT / "BENCH_perf.json"


def measure_point(
    name: str,
    width: int,
    ports: int,
    mode: str,
    scale: int = SCALE,
    observer: Observer | None = None,
    rounds: int = ROUNDS,
) -> float:
    """Best-of-``rounds`` KIPS for one (benchmark, configuration) point.

    ``observer`` threads a :class:`repro.observe.Observer` into every
    timed run — the ``--observe-check`` guard uses this to price the
    observability layer's dormant cost.
    """
    trace = cached_trace(name, scale)  # build outside the timed region
    best = 0.0
    for _ in range(rounds):
        config = make_config(width, ports, mode)
        machine = Machine(config, trace, observer=observer)
        t0 = time.process_time()
        stats = machine.run()
        elapsed = time.process_time() - t0
        best = max(best, stats.committed / 1000.0 / elapsed)
    return best


def _batch_summary(hist) -> dict:
    """Summarize a batch-size histogram (batch width -> batch count).

    ``median`` is *operation-weighted* — the batch width the median
    dispatched operation rode in — so a run that issues one 1000-wide
    batch and one 1-wide batch reports ~1000, not 500.  This is the
    number that shows whether batching actually amortizes per-call
    overhead over wide groups.
    """
    counts = hist.counts
    if not counts:
        return {"batches": 0, "median": 0, "max": 0}
    weighted = sorted((value, value * count) for value, count in counts.items())
    half = sum(w for _, w in weighted) / 2.0
    seen = 0.0
    median = weighted[-1][0]
    for value, weight in weighted:
        seen += weight
        if seen >= half:
            median = value
            break
    return {"batches": hist.total, "median": median, "max": max(counts)}


def profile_section(scale: int = SCALE) -> dict:
    """Pipeline-stage attribution for the exact points (``profile`` key).

    Each point runs once under a :class:`StageProfiler` plus a
    :class:`MetricsRegistry`: the payload records which stage's Python is
    hot (``stage_wall_fraction``), which stages the simulated machine
    keeps busy (``stage_cycle_fraction``), and — under ``batch`` — how
    wide the execute-stage kernel batches (``kernel.batch_size``) ran.
    The profiler's hooks sit in the same run
    loop the timed KIPS runs execute; profiled runs are bit-identical to
    plain ones, only slower by the clock reads.
    """
    out = {}
    for label, (name, width, ports, mode) in POINTS.items():
        trace = cached_trace(name, scale)
        observer = Observer(metrics=MetricsRegistry(), profiler=StageProfiler())
        Machine(make_config(width, ports, mode), trace, observer=observer).run()
        out[label] = observer.profiler.to_dict()
        out[label]["batch"] = {
            "kernel": _batch_summary(observer.metrics.histogram("kernel.batch_size")),
        }
    return out


def run_benchmark(scale: int = SCALE, rounds: int = ROUNDS) -> dict:
    """Measure every point: the KIPS part of the BENCH_perf.json payload.

    ``scale``/``rounds`` shrink the run for CI lanes: KIPS is
    scale-insensitive here (the hot loop does the same per-instruction
    work at every trace length once past warm-up), so a reduced-scale
    measurement stays comparable against floors recorded at full scale.
    """
    current = {
        label: round(measure_point(*point, scale=scale, rounds=rounds), 2)
        for label, point in POINTS.items()
    }
    speedup = {
        label: round(current[label] / BASELINE_KIPS[label], 3) for label in POINTS
    }
    payload = {
        "unit": "KIPS (thousand simulated instructions / second)",
        "scale": scale,
        "rounds": rounds,
        "baseline_kips": BASELINE_KIPS,
        "current_kips": current,
        "speedup": speedup,
        "min_speedup": min(speedup.values()),
    }
    return payload


def observe_check(tolerance: float, scale: int = SCALE, rounds: int = ROUNDS) -> int:
    """CI guard: the *dormant* observability layer must cost (almost)
    nothing.

    Measures each exact point twice on this machine — once plain
    (``observer=None``) and once with an empty :class:`Observer` (all
    parts None, i.e. exactly what an instrumented-but-off run carries)
    — and fails if the observed KIPS falls more than ``tolerance`` below
    the plain KIPS on any point.  Same-process A/B keeps the guard
    meaningful across CI hosts of different speeds, unlike comparing
    against a recorded-on-another-machine number.
    """
    failed = False
    for label, point in POINTS.items():
        plain = measure_point(*point, scale=scale, rounds=rounds)
        observed = measure_point(*point, scale=scale, rounds=rounds, observer=Observer())
        ratio = observed / plain
        status = "OK" if ratio >= 1.0 - tolerance else "FAIL"
        if status == "FAIL":
            failed = True
        print(
            f"{label}: plain {plain:.2f} KIPS, tracing-off {observed:.2f} KIPS "
            f"({ratio:.1%}) {status}"
        )
    if failed:
        print(
            "FAIL: dormant observability overhead exceeds "
            f"{tolerance:.0%} on at least one point"
        )
        return 1
    print(f"OK: tracing-off throughput within {tolerance:.0%} of plain")
    return 0


def check_regression(tolerance: float, scale: int = SCALE, rounds: int = ROUNDS) -> int:
    """CI guard: fail when throughput regresses below the recorded floor.

    Two floors, both scaled by ``tolerance``: the aggregate
    ``min_speedup`` (the historical guard) and every *per-point* KIPS in
    ``current_kips`` — so a regression localized to one configuration
    (e.g. only the V-mode engine path) cannot hide behind another
    point's headroom.  ``scale``/``rounds`` let CI run a cheaper
    measurement against the full-scale floors (KIPS is scale-insensitive;
    see :func:`run_benchmark`).
    """
    recorded = json.loads(RESULT_PATH.read_text())
    floor = recorded["min_speedup"] * (1.0 - tolerance)
    fresh = run_benchmark(scale=scale, rounds=rounds)
    print(json.dumps(fresh, indent=2))
    print(
        f"min_speedup: fresh {fresh['min_speedup']:.3f} vs recorded "
        f"{recorded['min_speedup']:.3f} (floor {floor:.3f})"
    )
    failed = False
    if fresh["min_speedup"] < floor:
        print("FAIL: simulator throughput regressed below the recorded floor")
        failed = True
    for label, kips in recorded["current_kips"].items():
        point_floor = kips * (1.0 - tolerance)
        got = fresh["current_kips"].get(label, 0.0)
        status = "OK" if got >= point_floor else "FAIL"
        if status == "FAIL":
            failed = True
        print(
            f"{label}: fresh {got:.2f} KIPS vs recorded {kips:.2f} "
            f"(floor {point_floor:.2f}) {status}"
        )
    if failed:
        return 1
    print("OK")
    return 0


def append_history(payload: dict, timestamp: str | None) -> list:
    """The ``history`` array for the fresh payload: every entry recorded
    in the existing BENCH_perf.json plus one for this run.

    Each entry is the measurement summary (timestamp, per-point KIPS,
    speedups) — the full trajectory across PRs stays
    machine-readable instead of being overwritten by each rewrite.  The
    timestamp comes from the ``--timestamp`` CLI arg (e.g.
    ``--timestamp "$(date -u +%Y-%m-%dT%H:%M:%SZ)"``) so the harness
    itself stays deterministic; ``null`` is recorded when absent.
    """
    history: list = []
    if RESULT_PATH.exists():
        try:
            history = json.loads(RESULT_PATH.read_text()).get("history", [])
        except (ValueError, OSError):
            history = []
    history.append(
        {
            "timestamp": timestamp,
            "current_kips": payload["current_kips"],
            "speedup": payload["speedup"],
            "min_speedup": payload["min_speedup"],
        }
    )
    return history


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--timestamp",
        default=None,
        metavar="ISO8601",
        help="timestamp recorded with this run's history entry "
        '(e.g. "$(date -u +%%Y-%%m-%%dT%%H:%%M:%%SZ)")',
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression guard: compare fresh min_speedup against BENCH_perf.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional drop below the recorded min_speedup (default 0.25)",
    )
    parser.add_argument(
        "--observe-check",
        action="store_true",
        help="guard: tracing-off KIPS must stay within --observe-tolerance "
        "of a plain (observer=None) run measured in the same process",
    )
    parser.add_argument(
        "--observe-tolerance",
        type=float,
        default=0.03,
        help="allowed fractional tracing-off slowdown (default 0.03)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=SCALE,
        help="dynamic instructions per timed run (KIPS is scale-insensitive, "
        "so CI lanes can shrink this; default %(default)s)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=ROUNDS,
        help="best-of repetitions per point (default %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.observe_check:
        return observe_check(args.observe_tolerance, args.scale, args.rounds)
    if args.check:
        return check_regression(args.tolerance, args.scale, args.rounds)
    payload = run_benchmark(scale=args.scale, rounds=args.rounds)
    payload["profile"] = profile_section(args.scale)
    payload["history"] = append_history(payload, args.timestamp)
    if RESULT_PATH.exists():  # bench_service.py owns the "service" section
        try:
            service = json.loads(RESULT_PATH.read_text()).get("service")
        except (ValueError, OSError):
            service = None
        if service is not None:
            payload["service"] = service
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return 0


def test_perf_benchmark_runs():
    """Smoke: the harness measures nonzero throughput (no regression gate
    here — wall-clock assertions do not belong in correctness CI)."""
    kips = measure_point("compress", 4, 1, "noIM", scale=2_500)
    assert kips > 0


def test_observe_check_measures_both_sides():
    """Smoke: the A/B overhead guard produces comparable measurements."""
    plain = measure_point("compress", 4, 1, "noIM", scale=2_500)
    observed = measure_point(
        "compress", 4, 1, "noIM", scale=2_500, observer=Observer()
    )
    assert plain > 0 and observed > 0


def test_profile_section_attributes_stages():
    """Smoke: a profiled run lands nonzero wall-clock on every stage."""
    trace = cached_trace("compress", 2_500)
    observer = Observer(profiler=StageProfiler())
    Machine(make_config(4, 1, "noIM"), trace, observer=observer).run()
    payload = observer.profiler.to_dict()
    assert payload["cycles"] > 0
    assert sum(payload["stage_seconds"].values()) > 0
    # fractions are rounded to 4 places in the payload; allow that slack
    assert abs(sum(payload["stage_wall_fraction"].values()) - 1.0) < 1e-3


def test_batch_summary_is_operation_weighted():
    """1000 ops in one batch + 1 op in another: the median op rode wide."""
    from repro.observe.metrics import Histogram

    hist = Histogram({1000: 1, 1: 1})
    summary = _batch_summary(hist)
    assert summary == {"batches": 2, "median": 1000, "max": 1000}
    assert _batch_summary(Histogram()) == {"batches": 0, "median": 0, "max": 0}


def test_profile_section_reports_batch_widths():
    """A profiled V run surfaces the execute-stage kernel batch histogram."""
    trace = cached_trace("swim", 2_500)
    observer = Observer(metrics=MetricsRegistry(), profiler=StageProfiler())
    Machine(make_config(4, 1, "V"), trace, observer=observer).run()
    kernel = _batch_summary(observer.metrics.histogram("kernel.batch_size"))
    assert kernel["batches"] > 0 and kernel["max"] >= kernel["median"] >= 1


if __name__ == "__main__":
    sys.exit(main())
