"""Stride-distribution analysis (Fig 1 machinery)."""

import pytest

from repro.analysis import (
    STRIDE_BUCKETS,
    merge_histograms,
    small_stride_fraction,
    stride_histogram,
)

from ..conftest import asm_trace


def test_buckets_cover_0_to_9_plus_other():
    assert STRIDE_BUCKETS == tuple(str(k) for k in range(10)) + ("other",)


def test_pure_stride1_loop():
    trace = asm_trace(
        """
        .data
        a: .word 1 2 3 4 5 6 7 8
        .text
            li r1, a
            li r4, 0
        loop:
            ld r2, 0(r1)
            addi r1, r1, 8
            addi r4, r4, 1
            slti r5, r4, 8
            bne r5, r0, loop
            halt
        """
    )
    hist = stride_histogram(trace)
    assert hist["1"] == 1.0


def test_stride_zero():
    trace = asm_trace(
        """
        .data
        a: .word 7
        .text
            li r1, a
            ld r2, 0(r1)
            ld r3, 0(r1)
            ld r4, 0(r1)
            halt
        """
    )
    # Same pc? No: three static loads each executed once -> no samples...
    assert sum(stride_histogram(trace).values()) == 0.0


def test_stride_zero_dynamic():
    trace = asm_trace(
        """
        .data
        a: .word 7
        .text
            li r1, a
            li r4, 0
        loop:
            ld r2, 0(r1)
            addi r4, r4, 1
            slti r5, r4, 5
            bne r5, r0, loop
            halt
        """
    )
    assert stride_histogram(trace)["0"] == 1.0


def test_large_and_negative_strides_fall_in_other():
    trace = asm_trace(
        """
        .data
        a: .word 1
        .text
            li r1, a
            li r4, 0
        loop:
            ld r2, 0(r1)
            addi r1, r1, 96
            addi r4, r4, 1
            slti r5, r4, 4
            bne r5, r0, loop
            halt
        """
    )
    assert stride_histogram(trace)["other"] == 1.0


def test_negative_stride_bucketed_by_magnitude():
    trace = asm_trace(
        """
        .data
        a: .word 1 2 3 4 5 6 7 8
        .text
            li r1, a
            addi r1, r1, 56
            li r4, 0
        loop:
            ld r2, 0(r1)
            addi r1, r1, -8
            addi r4, r4, 1
            slti r5, r4, 8
            bne r5, r0, loop
            halt
        """
    )
    assert stride_histogram(trace)["1"] == 1.0  # |delta| / 8


def test_first_instance_contributes_no_sample():
    trace = asm_trace(
        """
        .data
        a: .word 1 2
        .text
        li r1, a
        ld r2, 0(r1)
        ld r3, 8(r1)
        halt
        """
    )
    assert sum(stride_histogram(trace).values()) == 0.0


def test_merge_histograms_averages():
    a = {key: 0.0 for key in STRIDE_BUCKETS}
    b = dict(a)
    a["0"] = 1.0
    b["1"] = 1.0
    merged = merge_histograms([a, b])
    assert merged["0"] == pytest.approx(0.5)
    assert merged["1"] == pytest.approx(0.5)


def test_merge_empty():
    assert sum(merge_histograms([]).values()) == 0.0


def test_small_stride_fraction():
    hist = {key: 0.0 for key in STRIDE_BUCKETS}
    hist["0"] = 0.4
    hist["3"] = 0.2
    hist["4"] = 0.4  # at the line size: excluded
    assert small_stride_fraction(hist) == pytest.approx(0.6)


def test_small_stride_fraction_is_a_share_of_strided_samples():
    hist = {key: 0.0 for key in STRIDE_BUCKETS}
    hist["1"] = 0.3
    hist["5"] = 0.1
    hist["other"] = 0.6  # neither strided nor small
    assert small_stride_fraction(hist) == pytest.approx(0.75)
    assert small_stride_fraction({key: 0.0 for key in STRIDE_BUCKETS}) == 0.0
