"""Ablation sweeps: shape and direction sanity at tiny scale."""

from repro.experiments import (
    confidence_sweep,
    damping_ablation,
    register_count_sweep,
    vector_length_sweep,
)
from repro.workloads import ALL_BENCHMARKS

SCALE = 2_500


def test_vector_length_sweep_shape():
    rows = vector_length_sweep(scale=SCALE)
    assert set(rows) == set(ALL_BENCHMARKS)
    for values in rows.values():
        assert set(values) == {"VL=2", "VL=4", "VL=8"}
        assert all(v > 0 for v in values.values())


def test_register_starvation_costs_ipc():
    rows = register_count_sweep(counts=(8, 128), scale=SCALE)
    starved = sum(v["fail@8"] for v in rows.values())
    full = sum(v["fail@128"] for v in rows.values())
    assert starved > full


def test_confidence_one_misspeculates_more():
    rows = confidence_sweep(thresholds=(1, 4), scale=SCALE)
    eager = sum(v["fail@1"] for v in rows.values())
    careful = sum(v["fail@4"] for v in rows.values())
    assert eager >= careful


def test_damping_reduces_squashes():
    rows = damping_ablation(scale=SCALE)
    damped = sum(v["squash_damped"] for v in rows.values())
    literal = sum(v["squash_literal"] for v in rows.values())
    assert damped <= literal
