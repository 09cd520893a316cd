"""Shared operation semantics: the single source of architectural truth."""

import math

import pytest

from repro.functional.semantics import (
    alu_function,
    apply_alu,
    branch_function,
    branch_taken,
    s64,
)
from repro.isa import Opcode

S64_MIN = -(1 << 63)
S64_MAX = (1 << 63) - 1


class TestS64:
    def test_identity_in_range(self):
        for v in (0, 1, -1, 12345, S64_MIN, S64_MAX):
            assert s64(v) == v

    def test_wraps_positive_overflow(self):
        assert s64(S64_MAX + 1) == S64_MIN

    def test_wraps_negative_overflow(self):
        assert s64(S64_MIN - 1) == S64_MAX

    def test_wraps_large_products(self):
        assert s64((1 << 64) + 5) == 5


class TestIntegerAlu:
    def test_add_sub(self):
        assert apply_alu(Opcode.ADD, 2, 3) == 5
        assert apply_alu(Opcode.SUB, 2, 3) == -1

    def test_add_wraps(self):
        assert apply_alu(Opcode.ADD, S64_MAX, 1) == S64_MIN

    def test_mul_wraps(self):
        assert apply_alu(Opcode.MUL, 1 << 62, 4) == 0

    def test_div_truncates_toward_zero(self):
        assert apply_alu(Opcode.DIV, 7, 2) == 3
        assert apply_alu(Opcode.DIV, -7, 2) == -3
        assert apply_alu(Opcode.DIV, 7, -2) == -3

    def test_div_by_zero_is_zero(self):
        assert apply_alu(Opcode.DIV, 42, 0) == 0

    def test_rem_sign_and_identity(self):
        for a in (-7, -1, 0, 5, 13):
            for b in (-3, -1, 2, 5):
                q = apply_alu(Opcode.DIV, a, b)
                r = apply_alu(Opcode.REM, a, b)
                assert q * b + r == a

    def test_rem_by_zero_returns_dividend(self):
        assert apply_alu(Opcode.REM, 42, 0) == 42

    def test_bitwise(self):
        assert apply_alu(Opcode.AND, 0b1100, 0b1010) == 0b1000
        assert apply_alu(Opcode.OR, 0b1100, 0b1010) == 0b1110
        assert apply_alu(Opcode.XOR, 0b1100, 0b1010) == 0b0110

    def test_shifts_mask_amount(self):
        assert apply_alu(Opcode.SLL, 1, 3) == 8
        assert apply_alu(Opcode.SLL, 1, 64) == 1  # amount masked to 0
        assert apply_alu(Opcode.SRL, -1, 60) == 15  # logical shift of all-ones
        assert apply_alu(Opcode.SRA, -16, 2) == -4  # arithmetic keeps sign

    def test_slt(self):
        assert apply_alu(Opcode.SLT, -1, 0) == 1
        assert apply_alu(Opcode.SLT, 0, 0) == 0

    def test_immediate_forms_match_register_forms(self):
        pairs = [
            (Opcode.ADDI, Opcode.ADD),
            (Opcode.ANDI, Opcode.AND),
            (Opcode.ORI, Opcode.OR),
            (Opcode.XORI, Opcode.XOR),
            (Opcode.SLLI, Opcode.SLL),
            (Opcode.SRLI, Opcode.SRL),
            (Opcode.SRAI, Opcode.SRA),
            (Opcode.SLTI, Opcode.SLT),
        ]
        for imm_op, rr_op in pairs:
            assert apply_alu(imm_op, 29, 3) == apply_alu(rr_op, 29, 3)

    def test_li_returns_immediate(self):
        assert apply_alu(Opcode.LI, 0, 77) == 77

    def test_int_ops_coerce_float_operands(self):
        assert apply_alu(Opcode.ADD, 2.9, 1) == 3  # trunc toward zero


class TestFloatAlu:
    def test_basic(self):
        assert apply_alu(Opcode.FADD, 1.5, 2.25) == 3.75
        assert apply_alu(Opcode.FSUB, 1.0, 0.25) == 0.75
        assert apply_alu(Opcode.FMUL, 3.0, 0.5) == 1.5
        assert apply_alu(Opcode.FDIV, 1.0, 4.0) == 0.25

    def test_fdiv_by_zero_defined(self):
        assert apply_alu(Opcode.FDIV, 5.0, 0.0) == 0.0

    def test_unary(self):
        assert apply_alu(Opcode.FNEG, 2.0, 0) == -2.0
        assert apply_alu(Opcode.FABS, -2.0, 0) == 2.0
        assert apply_alu(Opcode.FMOV, 7.5, 0) == 7.5

    def test_fsqrt_total(self):
        assert apply_alu(Opcode.FSQRT, 4.0, 0) == 2.0
        assert apply_alu(Opcode.FSQRT, -4.0, 0) == 2.0  # |x| convention

    def test_conversions(self):
        assert apply_alu(Opcode.ITOF, 3, 0) == 3.0
        assert apply_alu(Opcode.FTOI, 3.9, 0) == 3
        assert apply_alu(Opcode.FTOI, -3.9, 0) == -3

    def test_fp_ops_coerce_int_operands(self):
        assert apply_alu(Opcode.FADD, 1, 2) == 3.0
        assert isinstance(apply_alu(Opcode.FADD, 1, 2), float)


class TestBranches:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (Opcode.BEQ, 1, 1, True),
            (Opcode.BEQ, 1, 2, False),
            (Opcode.BNE, 1, 2, True),
            (Opcode.BNE, 2, 2, False),
            (Opcode.BLT, -1, 0, True),
            (Opcode.BLT, 0, 0, False),
            (Opcode.BGE, 0, 0, True),
            (Opcode.BGE, -1, 0, False),
        ],
    )
    def test_conditions(self, op, a, b, expected):
        assert branch_taken(op, a, b) is expected

    def test_non_branch_rejected(self):
        with pytest.raises(ValueError):
            branch_taken(Opcode.ADD, 1, 2)


def test_non_arithmetic_op_rejected():
    with pytest.raises(ValueError):
        apply_alu(Opcode.LD, 1, 2)


def test_results_never_nan_from_finite_div():
    assert not math.isnan(apply_alu(Opcode.FDIV, 0.0, 0.0))


_INT64_EDGES = (0, 1, -1, 7, -64, 63, 64, 1 << 40, S64_MAX, -S64_MAX - 1)


@pytest.mark.parametrize("op", [op for op in Opcode if op <= Opcode.LI])
def test_int64_alu_callables_skip_only_an_identity_coercion(op):
    """On int64 operands the uncoerced integer callables the interpreter
    predecodes agree with :func:`apply_alu`, result type included."""
    fast = alu_function(op, int64_operands=True)
    for a in _INT64_EDGES:
        for b in _INT64_EDGES:
            got, want = fast(a, b), apply_alu(op, a, b)
            assert (type(got), got) == (type(want), want), (op, a, b)


@pytest.mark.parametrize("op", [Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE])
def test_int64_branch_conditions_match_branch_taken(op):
    fast = branch_function(op, int64_operands=True)
    for a in _INT64_EDGES:
        for b in _INT64_EDGES:
            assert fast(a, b) == branch_taken(op, a, b), (op, a, b)
