"""Average-vector-length analysis (paper §4.1's VL=4 justification)."""

import pytest

from repro.analysis import average_vector_length
from repro.workloads import SPEC_FP, SPEC_INT, cached_trace
from repro.analysis.reports import mean

from ..conftest import asm_trace


def loop_trace(n, reset_every=None):
    """A strided loop of n iterations, optionally restarting the pointer."""
    if reset_every is None:
        return asm_trace(f"""
            .data
            a: .space {n}
            .text
                li r1, a
                li r4, 0
            loop:
                ld r2, 0(r1)
                addi r1, r1, 8
                addi r4, r4, 1
                slti r5, r4, {n}
                bne r5, r0, loop
                halt
        """)
    passes = n // reset_every
    return asm_trace(f"""
        .data
        a: .space {reset_every}
        .text
            li r6, 0
        outer:
            li r1, a
            li r4, 0
        loop:
            ld r2, 0(r1)
            addi r1, r1, 8
            addi r4, r4, 1
            slti r5, r4, {reset_every}
            bne r5, r0, loop
            addi r6, r6, 1
            slti r5, r6, {passes}
            bne r5, r0, outer
            halt
    """)


def test_unbroken_stride_is_one_long_run():
    result = average_vector_length(loop_trace(32))
    assert result.runs == 1
    assert result.run_lengths == [32]


def test_pointer_reset_breaks_runs():
    result = average_vector_length(loop_trace(32, reset_every=8))
    # 4 passes of 8 iterations; the reset between passes breaks the run.
    assert result.average <= 8.0
    assert result.runs >= 4
    assert 2 <= min(result.run_lengths) and max(result.run_lengths) <= 8


def test_single_load_has_no_runs():
    result = average_vector_length(asm_trace(
        ".data\na: .word 1\n.text\nli r1, a\nld r2, 0(r1)\nhalt"))
    assert result.runs == 0
    assert result.average == 0.0


@pytest.mark.parametrize("names", [SPEC_INT, SPEC_FP])
def test_suite_average_exceeds_the_register_length(names):
    """§4.1 reports averages of 8.84 (SpecInt) / 7.37 (SpecFP) — both above
    the chosen VL=4, meaning registers chain rather than starve.  Our
    synthetic loops are *more* regular than real SPEC (longer unbroken
    runs; documented in EXPERIMENTS.md), so the reproduced averages are
    higher, but the property the paper uses the statistic for — average
    run length comfortably above VL — must hold."""
    avg = mean([average_vector_length(cached_trace(n, 6000)).average for n in names])
    assert avg > 4.0
