"""Deterministic cost probe: bytecode opcodes per committed instruction.

Wall-clock and CPU timings of the cycle loop drift by ±10 % on small
shared VMs, so a few-percent optimization can hide inside one run's
noise.  The number of bytecode instructions the interpreter executes
does not drift: for a fixed tree and grid point it is the same on every
run.  This probe simulates one grid point under :func:`sys.settrace`
with per-opcode events and attributes every executed opcode to a
pipeline stage of :meth:`repro.pipeline.machine.Machine._cycles`:

* an opcode inside ``_cycles`` counts for the stage whose
  ``# ---- <stage>`` section holds its line (``tick`` for the vector
  datapath call at the top of the cycle, ``loop`` for the cycle
  bookkeeping outside every section);
* an opcode in any function the loop calls (directly or not) counts for
  the stage that made the outermost call, and is also listed under that
  callee's name;
* every opcode also counts once for the function that executed it (its
  *self* count, keyed by qualified name), so a change that moves work
  between functions shows which function moved;
* ``setup`` is ``Machine(...)`` construction and ``finish`` the
  end-of-run accounting.

The report divides each count by the committed instructions.  Run::

    PYTHONPATH=src python benchmarks/opcount.py gcc --width 4 --ports 4 --mode noIM
    PYTHONPATH=src python benchmarks/opcount.py li --mode V --json

Tracing slows the simulation down roughly fiftyfold, so prefer one point
per invocation.  Counts differ between interpreter versions, so compare
trees on the same one.  Opcodes measure interpreted work only: time
spent inside C functions (``list.sort``, ``heappush``) does not show.
"""

from __future__ import annotations

import argparse
import inspect
import json
import pathlib
import re
import sys
from collections import Counter

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import EXPERIMENT_SCALE, point_config  # noqa: E402
from repro.pipeline.machine import Machine  # noqa: E402
from repro.workloads.spec95 import cached_trace  # noqa: E402

#: a section header inside ``Machine._cycles``.
_SECTION = re.compile(r"^\s*# ---- (\w+)")
#: the section headers that open a stage (the execute stage's ``phase``
#: sub-headers do not).
_STAGES = ("begin", "commit", "execute", "memory", "dispatch", "fetch")


def _qualname(code) -> str:
    """``Class.method`` where the interpreter records it (3.11+)."""
    return getattr(code, "co_qualname", code.co_name)


def stage_lines(func) -> dict:
    """Map every source line of ``func`` to its ``# ---- <stage>`` section.

    The loop set-up before the first section and the cycle tail after the
    last one (``now += 1`` and the stop test) are ``loop``.  The cycle's
    ``begin`` section is ``loop`` too, except the vector datapath call,
    which is its own ``tick`` stage.
    """
    source, first = inspect.getsourcelines(func)
    stages = {}
    current = "loop"
    for offset, text in enumerate(source):
        match = _SECTION.match(text)
        if match and match.group(1) in _STAGES:
            current = match.group(1)
        elif text.strip().startswith("now += 1"):
            current = "loop"
        if current == "begin":
            stage = "tick" if "engine_tick(" in text else "loop"
        else:
            stage = current
        stages[first + offset] = stage
    return stages


def count_point(name: str, width: int, ports: int, mode: str, scale: int,
                block: bool = True) -> dict:
    """Opcode counts of one simulated grid point, by stage and callee."""
    trace = cached_trace(name, scale)
    config = point_config(width, ports, mode, block)
    cycles_code = Machine._cycles.__code__
    cycles_name = _qualname(cycles_code)
    lines = stage_lines(Machine._cycles)
    by_stage: Counter = Counter()
    by_callee: Counter = Counter()
    by_function: Counter = Counter()
    labels = {}
    state = {"stage": "setup", "cycles": None}

    def loop_tracer(frame, event, arg):
        if event == "opcode":
            stage = lines.get(frame.f_lineno, "loop")
            state["stage"] = stage
            by_stage[stage] += 1
            by_function[cycles_name] += 1
        return loop_tracer

    def tracer(frame, event, arg):
        if event != "call":
            return None
        code = frame.f_code
        if code is cycles_code:
            state["cycles"] = frame
            frame.f_trace_opcodes = True
            return loop_tracer
        parent = frame.f_back
        if parent is not None and parent is state["cycles"]:
            label = (state["stage"], code.co_name)
        else:
            label = labels.get(parent)
            if label is None:
                label = (state["stage"], code.co_name)
        labels[frame] = label
        frame.f_trace_opcodes = True
        stage, callee = label
        function = _qualname(code)

        def callee_tracer(frame, event, arg):
            if event == "opcode":
                by_stage[stage] += 1
                by_callee[label] += 1
                by_function[function] += 1
            elif event == "return":
                labels.pop(frame, None)
            return callee_tracer

        return callee_tracer

    sys.settrace(tracer)
    try:
        machine = Machine(config, trace)
        state["stage"] = "run"
        total = len(machine.trace.entries)
        safety = 2000 + 600 * total
        now = machine._cycles(0, safety + 1)
        state["stage"] = "finish"
        stats = machine._finish(now)
    finally:
        sys.settrace(None)
    committed = stats.committed
    return {
        "point": {
            "benchmark": name, "width": width, "ports": ports, "mode": mode,
            "scale": scale, "block_on_scalar_operand": block,
        },
        "python": sys.version.split()[0],
        "committed": committed,
        "cycles": stats.cycles,
        "opcodes": sum(by_stage.values()),
        "per_committed": round(sum(by_stage.values()) / committed, 2),
        "stages": {
            stage: round(count / committed, 2)
            for stage, count in by_stage.most_common()
        },
        "callees": {
            f"{stage}:{callee}": round(count / committed, 2)
            for (stage, callee), count in by_callee.most_common(20)
        },
        "functions": {
            function: round(count / committed, 2)
            for function, count in by_function.most_common(30)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("benchmark")
    parser.add_argument("--width", type=int, default=4)
    parser.add_argument("--ports", type=int, default=1)
    parser.add_argument("--mode", choices=("noIM", "IM", "V"), default="V")
    parser.add_argument("--scale", type=int, default=EXPERIMENT_SCALE)
    parser.add_argument("--no-block", action="store_true",
                        help="V mode without the §3.2 scalar-operand stall")
    parser.add_argument("--json", action="store_true", help="print JSON")
    args = parser.parse_args(argv)
    report = count_point(args.benchmark, args.width, args.ports, args.mode,
                         args.scale, not args.no_block)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    point = report["point"]
    print(f"{point['benchmark']} {point['width']}w{point['ports']}p{point['mode']} "
          f"scale {point['scale']} (Python {report['python']}): "
          f"{report['committed']} committed, {report['cycles']} cycles")
    print(f"opcodes per committed instruction: {report['per_committed']:.2f}")
    for stage, value in report["stages"].items():
        print(f"  {stage:<10} {value:9.2f}")
    print("top callees (stage:function):")
    for label, value in report["callees"].items():
        print(f"  {label:<40} {value:9.2f}")
    print("self counts (function):")
    for function, value in report["functions"].items():
        print(f"  {function:<40} {value:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
