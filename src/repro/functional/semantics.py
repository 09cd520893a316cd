"""Operation semantics shared by every datapath in the simulator.

The functional interpreter, the scalar timing model and the *vector*
functional units must produce bit-identical results for the same operation
and operands — the paper's validation operations compare speculatively
computed vector elements against the architectural scalar results, and any
semantic drift between datapaths would show up as phantom misspeculations.
Centralising the semantics here makes that impossible by construction.

Integer values are 64-bit two's complement.  Division follows the
hardware-style convention of truncating toward zero; division by zero is
defined (not trapping) and yields 0 (quotient) / the dividend (remainder),
mirroring the "no integer trap" behaviour the workload generators rely on.
Floating point uses the host double; ``FSQRT`` is defined as
``sqrt(abs(x))`` so every value has a total, comparable result (NaNs would
poison the equality checks the validation mechanism performs).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Union

from ..isa.opcodes import Opcode

Number = Union[int, float]

#: 64-bit two's complement wrap constants (also inlined by the pipeline's
#: memory stage).
U64 = 1 << 64
U64_MASK = U64 - 1
S64_MAX = (1 << 63) - 1


def s64(value: int) -> int:
    """Wrap an integer to signed 64-bit two's complement."""
    value &= U64_MASK
    return value - U64 if value > S64_MAX else value


def _idiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return s64(-q if (a < 0) != (b < 0) else q)


def _irem(a: int, b: int) -> int:
    if b == 0:
        return s64(a)
    return s64(a - _idiv(a, b) * b)


def _fdiv(a: float, b: float) -> float:
    return 0.0 if b == 0.0 else a / b


def _fsqrt(a: float) -> float:
    return math.sqrt(abs(a))


#: opcode -> (int a, int b) -> int, for register-register integer ALU ops.
_INT_RR: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: lambda a, b: s64(a + b),
    Opcode.SUB: lambda a, b: s64(a - b),
    Opcode.MUL: lambda a, b: s64(a * b),
    Opcode.DIV: _idiv,
    Opcode.REM: _irem,
    Opcode.AND: lambda a, b: s64(a & b),
    Opcode.OR: lambda a, b: s64(a | b),
    Opcode.XOR: lambda a, b: s64(a ^ b),
    Opcode.SLL: lambda a, b: s64(a << (b & 63)),
    Opcode.SRL: lambda a, b: s64((a & U64_MASK) >> (b & 63)),
    Opcode.SRA: lambda a, b: s64(a >> (b & 63)),
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
}

#: immediate-form opcode -> register-register equivalent.
_RI_TO_RR: Dict[Opcode, Opcode] = {
    Opcode.ADDI: Opcode.ADD,
    Opcode.ANDI: Opcode.AND,
    Opcode.ORI: Opcode.OR,
    Opcode.XORI: Opcode.XOR,
    Opcode.SLLI: Opcode.SLL,
    Opcode.SRLI: Opcode.SRL,
    Opcode.SRAI: Opcode.SRA,
    Opcode.SLTI: Opcode.SLT,
}

#: opcode -> (float a, float b) -> float.
_FP_RR: Dict[Opcode, Callable[[float, float], float]] = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: _fdiv,
}

#: opcode -> (float a) -> float.
_FP_R: Dict[Opcode, Callable[[float], float]] = {
    Opcode.FNEG: lambda a: -a,
    Opcode.FABS: abs,
    Opcode.FMOV: lambda a: a,
    Opcode.FSQRT: _fsqrt,
}

#: opcode -> (int a, int b) -> bool, branch conditions.
_BRANCH: Dict[Opcode, Callable[[int, int], bool]] = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BGE: lambda a, b: a >= b,
}


def _int2(fn: Callable[[int, int], int]) -> Callable[[Number, Number], Number]:
    def call(a: Number, b: Number) -> Number:
        return fn(s64(int(a)), s64(int(b)))

    return call


def _fp2(fn: Callable[[float, float], float]) -> Callable[[Number, Number], Number]:
    def call(a: Number, b: Number) -> Number:
        return fn(float(a), float(b))

    return call


def _fp1(fn: Callable[[float], float]) -> Callable[[Number, Number], Number]:
    def call(a: Number, b: Number) -> Number:
        return fn(float(a))

    return call


def _build_alu_dispatch() -> Dict[Opcode, Callable[[Number, Number], Number]]:
    """One pre-composed coercion+operation callable per arithmetic opcode,
    so :func:`apply_alu` is a single dict lookup instead of probing the
    four class tables in turn (it runs once per traced instruction and once
    per vector ALU element)."""
    table: Dict[Opcode, Callable[[Number, Number], Number]] = {}
    for op, fn in _INT_RR.items():
        table[op] = _int2(fn)
    for op, rr in _RI_TO_RR.items():
        table[op] = table[rr]
    for op, fn2 in _FP_RR.items():
        table[op] = _fp2(fn2)
    for op, fn1 in _FP_R.items():
        table[op] = _fp1(fn1)
    table[Opcode.LI] = lambda a, b: s64(int(b))
    table[Opcode.ITOF] = lambda a, b: float(int(a))
    table[Opcode.FTOI] = lambda a, b: s64(int(float(a)))
    return table


_ALU_DISPATCH = _build_alu_dispatch()

#: the integer operations on operands already wrapped to int64, where
#: :func:`_int2`'s coercion is the identity.
_INT64_ALU: Dict[Opcode, Callable[[int, int], int]] = {
    **_INT_RR,
    **{op: _INT_RR[rr] for op, rr in _RI_TO_RR.items()},
    Opcode.LI: lambda a, b: b,
}


def alu_function(
    op: Opcode, int64_operands: bool = False
) -> Callable[[Number, Number], Number]:
    """The ``(a, b) -> result`` callable :func:`apply_alu` applies for
    ``op`` — for callers that evaluate one opcode many times (the vector
    datapath looks it up once per vector instance).  With
    ``int64_operands`` the caller promises both operands are int64 ints
    already, and an integer operation skips their coercion."""
    fn = _ALU_DISPATCH.get(op)
    if fn is None:
        raise ValueError(f"apply_alu: {op.name} is not an arithmetic opcode")
    if int64_operands:
        return _INT64_ALU.get(op, fn)
    return fn


def apply_alu(op: Opcode, a: Number, b: Number) -> Number:
    """Compute the result of arithmetic opcode ``op`` on operands ``a, b``.

    ``b`` is the second register for register-register forms, the immediate
    for immediate forms, and ignored for single-source forms.  ``LI``
    returns ``b`` (the immediate).  Operands are coerced to the domain of
    the opcode (int ops truncate floats toward zero; fp ops widen ints), so
    the function is total over any register contents.
    """
    return (_ALU_DISPATCH.get(op) or alu_function(op))(a, b)


def branch_function(
    op: Opcode, int64_operands: bool = False
) -> Callable[[Number, Number], bool]:
    """The ``(a, b) -> bool`` condition :func:`branch_taken` evaluates for
    ``op``.  With ``int64_operands`` the caller promises both operands
    are int64 ints already (integer-register contents), and the callable
    skips their coercion."""
    fn = _BRANCH.get(op)
    if fn is None:
        raise ValueError(f"branch_taken: {op.name} is not a branch opcode")
    return fn if int64_operands else _int2(fn)


def branch_taken(op: Opcode, a: Number, b: Number) -> bool:
    """Evaluate a conditional-branch condition on integer operands."""
    return branch_function(op)(a, b)
