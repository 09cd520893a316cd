"""The repository benchmark: figure regeneration and service workloads.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/README.md``.
Nothing here imports :mod:`repro` at module level, so the traced run can
time the program's own imports.
"""
