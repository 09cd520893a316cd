"""The traced run: one workload in-process, with spans around each layer.

The workload runs inside this process first, before anything here has
imported the program: ``repro.__main__.main`` for the figures workloads,
a server from ``repro.service.server.build_server`` for the service.
The process pool forks, so pool workers inherit the wrappers; each
worker writes its spans out when it exits.  The workload then runs once
more untraced, out of process, exactly as in ``--trace 0`` (its output
checks count too), and the tracing overhead is the traced wall minus
that untraced wall.

Self times are taken within this process only; pool workers' spans feed
the per-layer counts and ``parallel.worker_busy_s`` instead.
"""

from __future__ import annotations

import contextlib
import io
import threading
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Dict, List

from . import checks, harness, loadgen, workloads
from .spans import Recorder, Span, layer_self_times, load_worker_spans

#: the layers whose self time is reported, and the remainder ``other``.
LAYERS = (
    "setup", "workloads", "functional", "diskcache", "pipeline",
    "analysis", "experiments", "parallel", "service", "other",
)

UNITS = {
    "setup.import_s": "s",
    "setup.import_numpy_s": "s",
    "workloads.build_s": "s",
    "functional.run_s": "s",
    "functional.instructions": "count",
    "functional.soa_s": "s",
    "functional.soa_builds": "count",
    **{
        f"diskcache.{section}_{op}_s": "s"
        for section in ("trace", "soa", "stats")
        for op in ("load", "store")
    },
    "diskcache.stats_probes": "count",
    "diskcache.stats_hit_ratio": "ratio",
    "diskcache.bytes_read": "B",
    "diskcache.bytes_written": "B",
    "pipeline.run_s": "s",
    "pipeline.runs": "count",
    "pipeline.kips.noIM": "kIPS",
    "pipeline.kips.IM": "kIPS",
    "pipeline.kips.V": "kIPS",
    "pipeline.committed": "count",
    "pipeline.cycles": "count",
    "core.validation_frac": "ratio",
    "core.store_conflict_frac": "ratio",
    "core.elements_validated": "count",
    "core.elements_computed": "count",
    "core.avg_vector_length": "count",
    "analysis.s": "s",
    "parallel.grid_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.utilization": "ratio",
    "parallel.overhead_s": "s",
    "parallel.first_result_s": "s",
    "parallel.retries": "count",
    "parallel.failed": "count",
    "service.handle_ms_p50": "ms",
    "service.http_ms_p50": "ms",
    "service.memo_hits": "count",
    "service.dedup_hits": "count",
    "service.rejected": "count",
    "service.warm_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _mode(config) -> str:
    return "V" if config.vectorize else ("IM" if config.wide_bus else "noIM")


class Probes:
    """Installs the wrappers and keeps what the spans alone do not carry."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: grid key -> SimStats for every point the run produced or loaded.
        self.points: Dict[tuple, object] = {}

    def install(self) -> None:
        from repro.experiments import diskcache, parallel, runner
        from repro.functional import interpreter
        from repro.functional.trace import Trace
        from repro.pipeline.machine import Machine
        from repro.service.server import SimulationService, _Handler
        from repro.workloads import spec95
        from repro import api
        from repro.analysis import stride_profile, vector_length, vectorizability

        wrap = self.recorder.wrap
        wrap(spec95, "build", "workloads.build")
        wrap(interpreter, "run_program", "functional.run", after=self._instructions)
        original_soa = Trace.__dict__["soa"]

        def soa(trace):
            built = getattr(trace, "_soa", None) is None
            with self.recorder.span("functional.soa") as span:
                span.attrs["built"] = built
                return original_soa(trace)

        Trace.soa = soa
        root = diskcache.cache_root
        # (function, span name, the entry's path under the cache root)
        for fn, name, entry in (
            ("load_stats_entry", "diskcache.stats_load", "stats/{}.json"),
            ("store_stats", "diskcache.stats_store", "stats/{}.json"),
            ("load_cached_trace", "diskcache.trace_load", "traces/{}.jsonl"),
            ("store_trace", "diskcache.trace_store", "traces/{}.jsonl"),
            ("load_soa", "diskcache.soa_load", "soa/{}.soa"),
            ("store_soa", "diskcache.soa_store", "soa/{}.soa"),
        ):

            def sized(span, args, kwargs, result, entry=entry):
                # A load that returns None missed; a store always writes.
                hit = span.name.endswith("_store") or result is not None
                span.attrs["hit"] = hit
                path = root() / entry.format(args[0])
                if hit and path.exists():
                    span.attrs["bytes"] = path.stat().st_size

            wrap(diskcache, fn, name, after=sized)
        wrap(Machine, "run", "pipeline.run", after=self._pipeline)
        wrap(stride_profile, "stride_histogram", "analysis.stride_histogram")
        wrap(vectorizability, "vectorizable_fraction", "analysis.vectorizable_fraction")
        wrap(vector_length, "average_vector_length", "analysis.average_vector_length")
        wrap(api, "figure", "experiments.figure")
        wrap(runner, "compute_point", "experiments.point")
        wrap(parallel, "run_grid", "experiments.grid", after=self._grid)
        original_prime = runner.prime_memo

        def prime_memo(key, stats):
            self.points.setdefault(tuple(key), stats)
            return original_prime(key, stats)

        runner.prime_memo = prime_memo
        wrap(SimulationService, "run", "service.run")
        wrap(SimulationService, "warm", "service.warm")
        wrap(_Handler, "do_GET", "service.http")
        wrap(_Handler, "do_POST", "service.http")

    @staticmethod
    def _instructions(span, args, kwargs, trace) -> None:
        span.attrs["instructions"] = len(trace.entries)

    @staticmethod
    def _pipeline(span, args, kwargs, stats) -> None:
        machine = args[0]
        span.attrs.update(
            mode=_mode(machine.config), committed=stats.committed, cycles=stats.cycles
        )

    @staticmethod
    def _grid(span, args, kwargs, result) -> None:
        report = kwargs.get("report")
        if report is None:
            return
        # One job means the grid ran serially in this process: the pool
        # fabric was not involved, so it is not the parallel layer's time.
        if report.jobs > 1:
            span.name = "parallel.grid"
        span.attrs.update(
            jobs=report.jobs, memo_hits=report.memo_hits,
            retries=report.retries, failed=len(report.failed),
        )


def _sum(spans: List[Span], name: str, attr: str = None) -> float:
    """Total duration (or ``attr``) of the spans called ``name``, or of
    every span under ``name`` when it ends with a dot."""
    if name.endswith("."):
        chosen = [span for span in spans if span.name.startswith(name)]
    else:
        chosen = [span for span in spans if span.name == name]
    if attr is None:
        return sum(span.duration for span in chosen)
    return float(sum(span.attrs.get(attr, 0) for span in chosen))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Span], root: Span, probes: Probes) -> Dict[str, float]:
    """Every per-layer metric except the service's and the trace totals."""
    m: Dict[str, float] = {}
    m["setup.import_s"] = _sum(spans, "setup.import")
    m["setup.import_numpy_s"] = _sum(spans, "setup.import_numpy")
    m["workloads.build_s"] = _sum(spans, "workloads.build")
    m["functional.run_s"] = _sum(spans, "functional.run")
    m["functional.instructions"] = _sum(spans, "functional.run", "instructions")
    m["functional.soa_s"] = _sum(spans, "functional.soa")
    m["functional.soa_builds"] = _sum(spans, "functional.soa", "built")
    for section in ("trace", "soa", "stats"):
        for op in ("load", "store"):
            m[f"diskcache.{section}_{op}_s"] = _sum(spans, f"diskcache.{section}_{op}")
    stat_loads = [span for span in spans if span.name == "diskcache.stats_load"]
    m["diskcache.stats_probes"] = float(len(stat_loads))
    m["diskcache.stats_hit_ratio"] = _ratio(sum(s.attrs["hit"] for s in stat_loads), len(stat_loads))
    for op, metric in (("load", "bytes_read"), ("store", "bytes_written")):
        m[f"diskcache.{metric}"] = float(
            sum(span.attrs.get("bytes", 0) for span in spans if span.name.endswith(f"_{op}"))
        )

    runs = [span for span in spans if span.name == "pipeline.run"]
    m["pipeline.run_s"] = sum(span.duration for span in runs)
    m["pipeline.runs"] = float(len(runs))
    for mode in ("noIM", "IM", "V"):
        chosen = [span for span in runs if span.attrs["mode"] == mode]
        committed = sum(span.attrs["committed"] for span in chosen)
        m[f"pipeline.kips.{mode}"] = _ratio(committed, sum(s.duration for s in chosen)) / 1000.0
    m["pipeline.committed"] = float(sum(span.attrs["committed"] for span in runs))
    m["pipeline.cycles"] = float(sum(span.attrs["cycles"] for span in runs))

    vector = [stats for key, stats in probes.points.items() if key[3] == "V"]
    total = defaultdict(int)
    for stats in vector:
        for field in (
            "committed", "validations_committed", "store_conflicts", "committed_stores",
            "elements_computed_used", "elements_computed_unused",
            "registers_allocated", "vector_instances",
        ):
            total[field] += getattr(stats, field)
    registers = total["registers_allocated"]
    m["core.validation_frac"] = _ratio(total["validations_committed"], total["committed"])
    m["core.store_conflict_frac"] = _ratio(total["store_conflicts"], total["committed_stores"])
    m["core.elements_validated"] = _ratio(total["elements_computed_used"], registers)
    computed = total["elements_computed_used"] + total["elements_computed_unused"]
    m["core.elements_computed"] = _ratio(computed, registers)
    # Scalar instances each vector instance stood in for.
    m["core.avg_vector_length"] = _ratio(total["validations_committed"], total["vector_instances"])

    m["analysis.s"] = _sum(spans, "analysis.")
    m.update(_parallel_metrics(spans, root))
    selfs = layer_self_times(spans, root)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return m


def _parallel_metrics(spans: List[Span], root: Span) -> Dict[str, float]:
    grids = [span for span in spans if span.name == "parallel.grid"]
    workers = [
        span for span in spans if span.name == "experiments.point" and span.pid != root.pid
    ]
    busy = sum(span.duration for span in workers)
    capacity = sum(grid.duration * grid.attrs["jobs"] for grid in grids)
    overhead, first = 0.0, []
    for grid in grids:
        inside = [w for w in workers if grid.start <= w.start and w.end <= grid.end]
        if not inside:
            continue
        per_worker = defaultdict(float)
        for work in inside:
            per_worker[work.pid] += work.duration
        overhead += grid.duration - max(per_worker.values())
        first.append(min(work.end for work in inside) - grid.start)
    return {
        "parallel.grid_s": sum(grid.duration for grid in grids),
        "parallel.worker_busy_s": busy,
        "parallel.utilization": _ratio(busy, capacity),
        "parallel.overhead_s": overhead,
        "parallel.first_result_s": median(first) if first else 0.0,
        "parallel.retries": float(sum(grid.attrs["retries"] for grid in grids)),
        "parallel.failed": float(sum(grid.attrs["failed"] for grid in grids)),
    }


def _service_metrics(spans: List[Span], answers, service) -> Dict[str, float]:
    handled = sorted(
        (span for span in spans if span.name == "service.run"), key=lambda span: span.start
    )
    handle_ms = [span.duration * 1000.0 for span in handled]
    http_ms = [
        answer.latency_s * 1000.0 - handle for answer, handle in zip(answers, handle_ms)
    ]
    handled_ids = {span.id for span in handled}
    memo_hits = sum(
        span.attrs.get("memo_hits", 0)
        for span in spans
        if span.name.endswith(".grid") and span.parent in handled_ids
    )
    counter = service.metrics.counter
    return {
        "service.handle_ms_p50": median(handle_ms),
        "service.http_ms_p50": median(http_ms),
        "service.memo_hits": float(memo_hits),
        "service.dedup_hits": float(counter("service.dedup_hits").value),
        "service.rejected": float(counter("service.http.503").value),
        "service.warm_s": _sum(spans, "service.warm"),
    }


def _import_program(recorder: Recorder) -> None:
    with recorder.span("setup.import"):
        with recorder.span("setup.import_numpy"):
            import numpy  # noqa: F401  (pulled in by repro.core.kernel)
        import repro.__main__  # noqa: F401


def _figures_in_process(tally: checks.Tally):
    """The figure set the CLI printed, or None (counted as failed)."""
    import repro.__main__

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.__main__.main(["figures", "--jobs", "1", "--json"])
    tally.check(code == 0, f"traced figures returned {code}")
    return checks.parse_json(out.getvalue(), "traced figures", tally)


def _service_in_process(seed):
    from repro.experiments.figures import headline_points
    from repro.service import ServiceConfig
    from repro.service.server import build_server
    from repro.workloads import ALL_BENCHMARKS

    config = ServiceConfig(
        host="127.0.0.1", port=0, jobs=workloads.POOL_JOBS,
        warm_benchmarks=tuple(ALL_BENCHMARKS),
    )
    server = build_server(config)
    service = server.service
    service.warm()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = loadgen.Client(server.server_address[1])
        log = loadgen.request_log(seed, workloads.service_points(headline_points))
        answers = client.replay(log)
        job = client.headline(checks.SCALE)
        client.close()
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
        thread.join(timeout=30)
    return log, answers, job, service


def run(workload: str, scratch: Path, seed: int) -> workloads.Outcome:
    # 1. The workload inside this process, traced.  It goes first, while
    #    nothing here has imported the program yet, so the import is timed
    #    and no in-process cache is warm.
    tally = checks.Tally()
    env = harness.pinned_env(scratch, scratch / "cache")
    harness.warm_pycache(env)
    workloads.use_program(env)
    recorder = Recorder(scratch / "spans")
    probes = Probes(recorder)
    with recorder.root_span() as root:
        _import_program(recorder)
        probes.install()
        if workload == "service-run":
            log, answers, job, service = _service_in_process(seed)
        else:
            payload, service = _figures_in_process(tally), None
    outputs = checks.Outputs.for_this_model(tally)
    if service is not None:
        workloads.check_service_answers(log, answers, job, outputs)
    elif payload is not None:
        checks.check_figure_set(payload, outputs)
    worker_spans = load_worker_spans(scratch / "spans")
    spans = recorder.spans + worker_spans
    metrics = layer_metrics(spans, root, probes)
    if service is not None:
        metrics.update(_service_metrics(spans, answers, service))
    else:
        metrics.update({name: 0.0 for name in UNITS if name.startswith("service.")})
        metrics["service.self_s"] = 0.0

    # 2. The untraced reference, out of process, exactly as ``--trace 0``.
    (scratch / "untraced").mkdir()
    if workload == "service-run":
        _, checked, _, untraced_wall = workloads.service(scratch / "untraced", seed, 0.0)
    else:
        _, checked, _, untraced_wall = workloads.figures(scratch / "untraced", 0.0)
    tally.attempted += checked.attempted
    tally.failed += checked.failed
    tally.problems += checked.problems

    metrics.update({
        "trace.wall_s": root.duration,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": root.duration - untraced_wall,
        "trace.spans": float(len(spans)),
    })
    notes = [
        f"traced wall {root.duration:.3f} s vs untraced {untraced_wall:.3f} s; "
        f"{len(spans)} spans ({len(worker_spans)} from pool workers)",
        "layer self times (this process): " + ", ".join(
            f"{layer} {metrics[f'{layer}.self_s']:.3f}" for layer in LAYERS
        ),
        *outputs.notes(),
    ]
    return workloads.Outcome(metrics, tally, notes, root.duration)
