"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with the program launched as users launch it; ``--trace 1``
runs the workload in-process with spans around each layer's public
functions and prints the per-layer metrics instead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Import the benchmark as a package from the repository root, not as
# loose modules from this directory.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import harness  # noqa: E402

#: end-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "rps": "1/s",
    "headline_err_pp": "pp",
    "headline_sign_agree": "count",
    "figstat_close": "count",
}

WORKLOADS = ("figures-cold", "service-run")


def measure(workload: str, seed: int, seconds: float, trace: bool):
    from perfbench import workloads

    with harness.run_dir(workload) as scratch:
        if trace:
            from perfbench import traced

            return traced.run(workload, scratch, seed), traced.UNITS
        if workload == "service-run":
            return workloads.service(scratch, seed, seconds), END_TO_END
        return workloads.figures(scratch, seconds), END_TO_END


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.require_source_tree()

    (metrics, tally, notes, _), units = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for line in notes:
        print(f"# {line}")
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name in units:
        print(f"# {name:<28} {metrics[name]:>14.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
