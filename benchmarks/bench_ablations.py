"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the parameters the paper fixes
by fiat (vector length 4, 128 registers, confidence 2) and the
reproduction's TL failure-damping addition.
"""

from repro.experiments import (
    confidence_sweep,
    damping_ablation,
    register_count_sweep,
    vector_length_sweep,
)

from conftest import SCALE, emit


def test_ablation_vector_length(benchmark):
    rows = benchmark.pedantic(vector_length_sweep, kwargs={"scale": SCALE}, rounds=1, iterations=1)
    emit("ablation_vl", "Ablation: IPC vs vector register length (4-way 1pV)", rows)


def test_ablation_register_count(benchmark):
    rows = benchmark.pedantic(register_count_sweep, kwargs={"scale": SCALE}, rounds=1, iterations=1)
    emit("ablation_regs", "Ablation: IPC / alloc failures vs vector register count", rows)


def test_ablation_confidence(benchmark):
    rows = benchmark.pedantic(confidence_sweep, kwargs={"scale": SCALE}, rounds=1, iterations=1)
    emit("ablation_conf", "Ablation: IPC / misspeculations vs TL confidence threshold", rows)


def test_ablation_damping(benchmark):
    rows = benchmark.pedantic(damping_ablation, kwargs={"scale": SCALE}, rounds=1, iterations=1)
    emit("ablation_damping", "Ablation: TL failure damping (ours) vs the paper's literal rule", rows)
