"""Fingerprint and run-loop parity: the cycle model's results are pinned.

The pipeline has one run loop (``Machine._cycles``); plain runs, observed
runs (metrics and stage profiling are hooks inside that loop) and runs
driven one cycle at a time through ``step()`` all execute it.  Every
SimStats field must match bit-for-bit across those drivers, and the
whole 84-point grid (12 benchmarks x 7 configurations) must equal the
pinned seed fingerprints.
"""

import dataclasses
import json
import pathlib
import random

import pytest

from repro.experiments.runner import point_config
from repro.functional import run_program
from repro.observe import MetricsRegistry, Observer, StageProfiler
from repro.pipeline.config import make_config
from repro.pipeline.machine import Machine
from repro.verify.fuzzer import generate_genome, synthesize
from repro.workloads.spec95 import ALL_BENCHMARKS, cached_trace

#: the fingerprint grid: every benchmark under seven machine shapes,
#: ``(width, ports, mode, block_on_scalar_operand)``.  The last two pin
#: V shapes the figures use: fig07's non-blocking scalar-operand policy
#: and a 2-port V machine.
GRID_CONFIGS = (
    (4, 1, "noIM", True),
    (4, 1, "IM", True),
    (4, 1, "V", True),
    (8, 1, "V", True),
    (4, 4, "V", True),
    (4, 1, "V", False),
    (4, 2, "V", True),
)
GRID_SCALE = 1500

#: SimStats fingerprints of the whole grid, captured before the
#: flat-array engine-state / cross-cycle batching rework: the refactors
#: must be pure restructurings, so current results must equal these
#: bit-for-bit.
_FINGERPRINTS = json.loads(
    (pathlib.Path(__file__).parent / "seed_fingerprints.json").read_text()
)


def _stats(trace, width, ports, mode, observer=None, block=True):
    config = point_config(width, ports, mode, block)
    machine = Machine(config, trace, observer=observer)
    return dataclasses.asdict(machine.run())


def _grid_key(name, width, ports, mode, block):
    return f"{name}/{width}w{ports}p/{mode}" + ("" if block else "-noblock")


def _stepped_stats(trace, width, ports, mode):
    """Drive a machine to completion one ``step()`` at a time, then stamp
    the whole-run statistics exactly as ``run()`` does after its loop."""
    machine = Machine(make_config(width, ports, mode), trace)
    now = 0
    while machine.committed_count < len(trace.entries):
        machine.step(now)
        now += 1
    return dataclasses.asdict(machine._finish(now))


def test_kernel_parity_grid():
    """Bit-identical SimStats on all 84 grid points against the pinned
    seed fingerprints."""
    assert _FINGERPRINTS["scale"] == GRID_SCALE
    points = _FINGERPRINTS["points"]
    for name in ALL_BENCHMARKS:
        trace = cached_trace(name, GRID_SCALE)
        for width, ports, mode, block in GRID_CONFIGS:
            got = _stats(trace, width, ports, mode, block=block)
            key = _grid_key(name, width, ports, mode, block)
            assert got == points[key], f"seed-semantics drift at {key}"


@pytest.mark.parametrize(
    "name,width,ports,mode",
    [("compress", 4, 1, "noIM"), ("compress", 4, 1, "IM"), ("swim", 4, 1, "V")],
)
def test_fused_run_loop_matches_step_loop(name, width, ports, mode):
    """Plain run == metrics + profiler run == a machine driven by step().

    The observation hooks only read clocks and counters, and step() runs
    one cycle of the same loop, so every SimStats field must be
    bit-identical across the three drivers.
    """
    trace = cached_trace(name, 3000)
    plain = _stats(trace, width, ports, mode)
    observer = Observer(metrics=MetricsRegistry(), profiler=StageProfiler())
    assert _stats(trace, width, ports, mode, observer=observer) == plain
    assert observer.profiler.cycles == plain["cycles"]
    assert _stepped_stats(trace, width, ports, mode) == plain


@pytest.mark.parametrize("seed", (7, 23, 91))
def test_fuzz_program_loop_parity(seed):
    """Seeded fuzz-generator programs through the V machine: the step()
    driven run matches the plain run."""
    program = synthesize(generate_genome(random.Random(seed)))
    trace = run_program(program, max_instructions=20_000)
    assert trace.halted
    assert _stepped_stats(trace, 4, 1, "V") == _stats(trace, 4, 1, "V")
