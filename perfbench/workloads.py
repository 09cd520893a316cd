"""The two workloads, run from outside the program exactly as users launch it.

================  ===============================================================
``figures-cold``  ``figures --jobs 1 --json`` on an empty cache: all 228 points
                  simulated serially, no process pool (cycle loop, kernel,
                  engine).
``service-run``   ``serve --jobs 2`` and one closed-loop keep-alive client
                  replaying a seeded log of the 60 headline points x18 (60
                  misses, 1020 memo hits), then one ``/headline`` job; again
                  on a fresh daemon while the run has time left.
================  ===============================================================

Each function returns an :class:`Outcome`: the end-to-end metrics, with
every time in reference seconds (:mod:`perfbench.probe`), the
output-check :class:`~perfbench.checks.Tally`, and human-readable lines
printed before the result.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, NamedTuple, Tuple

from . import checks, harness, loadgen
from .harness import PYTHON
from .probe import HostSpeed
from .summary import TAIL_BEYOND, tail

#: fresh-interpreter launches per run; ``setup_s`` is their median.
IMPORT_SETUPS = 10
#: timed figures commands per run at most.  One command is one request,
#: and with ten or fewer samples the reported tail is always the maximum;
#: an eleventh would make the tail rule jump to a low percentile.
MAX_COMMANDS = TAIL_BEYOND
#: replays of the request log per run at least, each on a fresh daemon;
#: more follow while the run has time left.
MIN_REPLAYS = 1
#: daemon launches per run at least; those past the replays only time set-up.
SERVICE_SETUPS = 3
#: worker processes of the daemon: the cores of a two-vCPU host.
POOL_JOBS = 2


class Outcome(NamedTuple):
    #: every reported metric; times in reference seconds (:mod:`perfbench.probe`).
    metrics: Dict[str, float]
    tally: checks.Tally
    #: lines printed before the result.
    notes: List[str]
    #: raw seconds from launch to the end of the work, which the traced
    #: run also spans, for its overhead: a figures command; a daemon's
    #: set-up plus a replay.
    raw_wall_s: float


def figures_argv(jobs: int) -> List[str]:
    return [PYTHON, "-m", "repro", "figures", "--jobs", str(jobs), "--json"]


def serve_argv(port: int, benchmarks) -> List[str]:
    return [
        PYTHON, "-m", "repro", "serve", "--port", str(port), "--jobs", str(POOL_JOBS),
        "--warm-benchmarks", *benchmarks,
    ]


def use_program(env: Dict[str, str]) -> None:
    """Let this process import the program, under the pinned environment.

    Only the output checks and the traced run do so; the untraced timed
    phases never run program code in this process.
    """
    os.environ.clear()
    os.environ.update(env)
    if str(harness.SRC) not in sys.path:
        sys.path.insert(0, str(harness.SRC))


def fidelity(cache: Path, claims) -> Dict[str, float]:
    """Headline and figure-statistic accuracy, read from the run's cache."""
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    metrics = {"figstat_close": checks.figstat_close(checks.figure_statistics())}
    if claims is None:  # already counted as failed; keep the result well-formed
        return {**metrics, "headline_err_pp": 0.0, "headline_sign_agree": 0.0}
    return {**metrics, **checks.headline_accuracy(claims)}


def _seconds(values: List[float]) -> str:
    return " ".join(f"{value:.3f}" for value in values)


def figures(scratch: Path, seconds: float) -> Outcome:
    tally = checks.Tally()
    speed = HostSpeed()
    env = harness.pinned_env(scratch, scratch / "cache-setup")
    harness.warm_pycache(env)
    # Set-up samples before, between and after the timed commands, so
    # their median spans the run rather than one moment of it.
    setup = harness.import_setup_samples(env, scratch, IMPORT_SETUPS // 2, speed)
    use_program(env)

    runs: List[harness.Child] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MAX_COMMANDS and (not runs or time.perf_counter() < deadline):
        cache = scratch / f"cache{len(runs)}"
        runs.append(harness.run_child(
            figures_argv(1), harness.pinned_env(scratch, cache),
            scratch / f"figures{len(runs)}.out", speed,
        ))
        setup += harness.import_setup_samples(env, scratch, 1, speed)
    setup += harness.import_setup_samples(env, scratch, IMPORT_SETUPS - len(setup), speed)
    headline = harness.run_child(
        [PYTHON, "-m", "repro", "headline", "--jobs", "1", "--json"],
        harness.pinned_env(scratch, cache),
        scratch / "headline.out",
        speed,
    )

    # The checks import the program into this process, so they wait until
    # every command ran: a child's peak RSS, as wait4 reports it, counts
    # the memory of the process it was spawned from.
    outputs = checks.Outputs.for_this_model(tally)
    for child in runs:
        tally.check(child.returncode == 0, f"figures exited {child.returncode}")
        payload = checks.parse_json(child.stdout, "figures", tally)
        if payload is not None:
            checks.check_figure_set(payload, outputs)
    tally.check(headline.returncode == 0, f"headline exited {headline.returncode}")
    payload = checks.parse_json(headline.stdout, "headline", tally)
    claims = checks.check_headline(payload, outputs) if payload else None

    walls = [run.ref_wall_s for run in runs]
    p99 = tail([wall * 1000.0 for wall in walls])
    metrics = {
        "wall_s": median(walls),
        "cpu_s": median([run.ref_cpu_s for run in runs]),
        "peak_rss_mb": max(run.rss_mb for run in runs),
        "setup_s": median([child.ref_wall_s for child in setup]),
        "p50_ms": median(walls) * 1000.0,
        "p99_ms": p99.value,
        "rps": 1.0 / median(walls),
        **fidelity(cache, claims),
    }
    notes = [
        f"{len(runs)} figures command(s); one command is one request, so "
        f"p99_ms is the {p99.percentile:g}th percentile of {p99.samples} sample(s) "
        f"({p99.beyond} beyond)",
        f"setup_s: median of {len(setup)} fresh interpreters importing repro.__main__",
        f"times in reference seconds; host slowdown {speed.overall():.3f} over "
        f"{len(speed.samples)} probes",
        "command walls, raw s: " + _seconds([run.wall_s for run in runs]),
        "command walls, reference s: " + _seconds(walls),
        "set-up samples, raw s: " + _seconds([child.wall_s for child in setup]),
        *outputs.notes(),
    ]
    return Outcome(metrics, tally, notes, median(run.wall_s for run in runs))


def service_points(headline_points) -> List[Dict]:
    """The 60 headline points as ``/run`` request bodies."""
    return [
        {
            "benchmark": p.name, "width": p.width, "ports": p.ports, "mode": p.mode,
            "scale": p.scale, "block_on_scalar_operand": p.block_on_scalar_operand,
        }
        for p in headline_points(checks.SCALE)
    ]


def check_service_answers(log, answers, job, outputs: checks.Outputs):
    """Check every ``/run`` answer and the ``/headline`` job; returns the claims."""
    tally = outputs.tally
    for point, answer in zip(log, answers):
        what = f"/run {point['benchmark']} {point['width']}w{point['ports']}p{point['mode']}"
        if not tally.check(answer.status == 200, f"{what}: HTTP {answer.status}"):
            continue
        payload = json.loads(answer.body)
        if checks.valid_envelope(payload, what, tally):
            # Hits must return exactly what the miss computed.
            outputs.agree(json.dumps(point, sort_keys=True), payload, what, pinned=False)
    submitted, final = job
    for answer, status, what in ((submitted, 202, "/headline submit"), (final, 200, "/headline job")):
        if not tally.check(answer.status == status, f"{what}: HTTP {answer.status}"):
            return None
        payload = json.loads(answer.body)
        if not checks.valid_envelope(payload, what, tally):
            return None
    return checks.check_headline(payload["job"]["result"], outputs)


class Replay(NamedTuple):
    """One timed replay of the request log on a fresh daemon."""

    answers: List[loadgen.Answer]
    job: Tuple[loadgen.Answer, loadgen.Answer]
    #: ``/run`` latencies, reference seconds.
    latencies: List[float]
    #: time waiting on the daemon (``/run`` latencies plus the job), raw
    #: and reference seconds.
    raw_wall_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float


def replay(port: int, daemon, log, speed: HostSpeed) -> Replay:
    client = loadgen.Client(port)
    try:
        cpu_before = harness.tree_cpu_s(daemon.pid)
        first = time.monotonic()
        answers = client.replay(log, speed)
        speed.probe()
        job_start = time.monotonic()
        job = client.headline(checks.SCALE)
        job_end = time.monotonic()
        speed.probe()
        cpu = harness.tree_cpu_s(daemon.pid) - cpu_before
        rss = harness.tree_peak_rss_mb(daemon.pid)
    finally:
        client.close()
    latencies = [
        answer.latency_s / speed.factor(answer.start, answer.start + answer.latency_s)
        for answer in answers
    ]
    job_s = job_end - job_start
    return Replay(
        answers=answers,
        job=job,
        latencies=latencies,
        raw_wall_s=sum(answer.latency_s for answer in answers) + job_s,
        wall_s=sum(latencies) + job_s / speed.factor(job_start, job_end),
        cpu_s=cpu / speed.factor(first, job_end, cpu=True),
        rss_mb=rss,
    )


def service(scratch: Path, seed: int, seconds: float) -> Outcome:
    tally = checks.Tally()
    speed = HostSpeed()
    env = harness.pinned_env(scratch, scratch / "cache-setup")
    harness.warm_pycache(env)
    use_program(env)
    from repro.experiments.figures import headline_points
    from repro.workloads import ALL_BENCHMARKS

    log = loadgen.request_log(seed, service_points(headline_points))

    setup: List[float] = []
    raw_setup: List[float] = []

    def launch(index: int):
        port = harness.free_port()
        speed.probe(2)
        first = time.monotonic()
        start = time.perf_counter()
        daemon = harness.spawn(
            serve_argv(port, ALL_BENCHMARKS),
            harness.pinned_env(scratch, scratch / f"cache{index}"),
            scratch / f"serve{index}.out",
        )
        ready = loadgen.wait_ready(port, lambda: daemon.poll() is None)
        raw_setup.append(time.perf_counter() - start)
        last = time.monotonic()
        speed.probe(2)
        setup.append(raw_setup[-1] / speed.factor(first, last))
        if not tally.check(ready, f"daemon {index} never answered /status"):
            harness.stop_tree(daemon)
            raise RuntimeError("service did not start")
        return daemon, port

    # This process imported the program for the log; keep its collector
    # from walking those objects while the client is timing requests.
    gc.collect()
    gc.freeze()
    replays: List[Replay] = []
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        serve = len(replays) < MIN_REPLAYS or time.monotonic() < deadline
        if not serve and index >= SERVICE_SETUPS:
            break
        daemon, port = launch(index)
        try:
            if serve:
                replays.append(replay(port, daemon, log, speed))
                cache = scratch / f"cache{index}"
        finally:
            harness.stop_tree(daemon)
        index += 1

    outputs = checks.Outputs.for_this_model(tally)
    for run in replays:
        claims = check_service_answers(log, run.answers, run.job, outputs)

    latencies = [latency * 1000.0 for run in replays for latency in run.latencies]
    p99 = tail(latencies)
    raw = [answer.latency_s * 1000.0 for run in replays for answer in run.answers]
    metrics = {
        "wall_s": median(run.wall_s for run in replays),
        "cpu_s": median(run.cpu_s for run in replays),
        "peak_rss_mb": max(run.rss_mb for run in replays),
        "setup_s": median(setup),
        "p50_ms": median(latencies),
        "p99_ms": p99.value,
        "rps": median(len(run.answers) / run.wall_s for run in replays),
        **fidelity(cache, claims),
    }
    notes = [
        f"{len(replays)} replays of {len(log)} /run requests, each over one keep-alive "
        f"connection to a fresh daemon; p99_ms is the {p99.percentile:g}th percentile "
        f"of {p99.samples} samples ({p99.beyond} beyond)",
        f"setup_s: median of {len(setup)} daemon launches, spawn to first /status answer",
        "cpu_s/peak_rss_mb: the daemon and its pool workers; the client is not counted",
        f"times in reference seconds; host slowdown {speed.overall():.3f} over "
        f"{len(speed.samples)} probes",
        "replay walls, raw s: " + _seconds([run.raw_wall_s for run in replays]),
        f"/run latency, raw ms: p50 {median(raw):.3f}, p{p99.percentile:g} {tail(raw).value:.3f}",
        "replay walls, reference s: " + _seconds([run.wall_s for run in replays]),
        "set-up samples, raw s: " + _seconds(raw_setup),
        *outputs.notes(),
    ]
    raw_wall = median(raw_setup) + median(run.raw_wall_s for run in replays)
    return Outcome(metrics, tally, notes, raw_wall)
