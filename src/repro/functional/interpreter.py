"""The architectural (functional) interpreter.

Executes a :class:`~repro.isa.program.Program` to completion (or an
instruction cap) and emits a :class:`~repro.functional.trace.Trace`.  This
is the reference semantics of the machine: the timing model replays its
entries, the vector datapath's results are validated against its values,
and the property-based tests compare everything back to it.
"""

from __future__ import annotations

from ..isa.instruction import Instruction
from ..isa.opcodes import BRANCH_OPS, FP_DEST_OPS, INT_RI_OPS, INT_RR_OPS, Opcode
from ..isa.program import Program
from ..isa.registers import FP_BASE, NO_REG, NUM_INT_REGS, NUM_LOGICAL_REGS, ZERO_REG
from .memory import MemoryImage
from .semantics import alu_function, branch_function, s64
from .trace import Trace, TraceEntry


class ExecutionError(Exception):
    """Raised for architecturally invalid execution (bad JR target, ...)."""


#: int64 values lie in ``[-_INT64, _INT64)``.
_INT64 = 1 << 63

#: handler kinds of a predecoded instruction (:func:`predecode`).
ALU, LOAD, STORE, BRANCH, JUMP, JAL, JR, HALT, NOP = range(9)

_KINDS = {
    Opcode.LD: LOAD, Opcode.FLD: LOAD,
    Opcode.ST: STORE, Opcode.FST: STORE,
    Opcode.J: JUMP, Opcode.JAL: JAL, Opcode.JR: JR,
    Opcode.HALT: HALT, Opcode.NOP: NOP,
    **{op: BRANCH for op in BRANCH_OPS},
}


def _int_word(word):
    """What ``LD`` writes: the memory word wrapped to int64."""
    return s64(int(word))


def _write(regs: list, rd: int, value) -> None:
    """Write ``value`` to ``rd`` coerced to its file's domain; ``r0`` and
    an absent destination discard it."""
    if rd >= FP_BASE:
        regs[rd] = float(value)
    elif rd != ZERO_REG and rd != NO_REG:
        regs[rd] = s64(int(value))


def predecode(ins: Instruction) -> tuple:
    """Decode ``ins`` once into the tuple :meth:`Interpreter.run` executes:
    ``(kind, a, b, imm, fn, b_imm, int_a, exact, target, op, rd, rs1, rs2)``.

    * ``a``/``b`` index the source registers; an absent source reads
      ``r0``, which always holds the integer 0.
    * ``fn`` is the ALU callable (:func:`semantics.alu_function`) or the
      branch condition, each without operand coercion when both operands
      are int64 already, or ``LD``/``FLD``'s conversion of the memory
      word.
    * ``b_imm``: the second ALU operand is the immediate, not ``b``.
    * ``int_a``: ``a`` is an integer register.  Its contents are always
      int64, so an address base or ``JR`` target needs no wrapping.
    * ``exact``: the value written to ``rd`` already has its file's
      domain (an int64 int, or a float) and is stored as is; otherwise
      :func:`_write` coerces or discards it.
    * the last four fields are the instruction's own, for the trace.
    """
    op, rd, rs1, rs2, imm = ins.op, ins.rd, ins.rs1, ins.rs2, ins.imm
    a = ZERO_REG if rs1 == NO_REG else rs1
    b = ZERO_REG if rs2 == NO_REG else rs2
    int_a = a < FP_BASE
    kind = _KINDS.get(op, ALU)
    fn = None
    b_imm = False
    fp_dest = op in FP_DEST_OPS
    if kind == ALU:
        b_imm = op is Opcode.LI or op in INT_RI_OPS or (
            op not in INT_RR_OPS and rs2 == NO_REG
        )
        int_b = type(imm) is int and -_INT64 <= imm < _INT64 if b_imm else b < FP_BASE
        fn = alu_function(op, int64_operands=int_a and int_b)
    elif kind == LOAD:
        fn = float if fp_dest else _int_word
    elif kind == BRANCH:
        fn = branch_function(op, int64_operands=int_a and b < FP_BASE)
    exact = ZERO_REG < rd < NUM_LOGICAL_REGS and fp_dest == (rd >= FP_BASE)
    return (kind, a, b, imm, fn, b_imm, int_a, exact, ins.target, op, rd, rs1, rs2)


class Interpreter:
    """Architectural interpreter for a single program.

    The interpreter is single-use: construct, :meth:`run`, inspect the trace.

    Args:
        program: finalized program to execute.
        max_instructions: retire cap; hitting it stops execution with
            ``trace.halted == False`` rather than raising, so runaway
            workloads still produce analysable traces.
    """

    def __init__(self, program: Program, max_instructions: int = 2_000_000) -> None:
        self.program = program
        self.max_instructions = max_instructions
        #: the 32 integer then the 32 floating-point registers.
        self.regs = [0] * NUM_INT_REGS + [0.0] * (NUM_LOGICAL_REGS - NUM_INT_REGS)
        self.memory = MemoryImage(dict(program.data))
        self._initial_memory = self.memory.copy()

    def run(self) -> Trace:
        """Execute until HALT, fall-off-end, or the instruction cap."""
        program = self.program
        code = [predecode(ins) for ins in program.instructions]
        n = len(code)
        entries = []
        append = entries.append
        regs = self.regs
        load = self.memory.load
        store = self.memory.store
        pc = program.entry
        seq = 0
        halted = False
        max_n = self.max_instructions

        while seq < max_n and 0 <= pc < n:
            kind, a, b, imm, fn, b_imm, int_a, exact, target, op, rd, rs1, rs2 = code[pc]
            s1 = regs[a]
            s2 = regs[b]
            addr = -1
            taken = False
            next_pc = pc + 1

            if kind == ALU:
                value = fn(s1, imm if b_imm else s2)
                if exact:
                    regs[rd] = value
                else:
                    _write(regs, rd, value)
            elif kind == LOAD:
                # Record what the destination register receives (LD wraps
                # to int64, FLD coerces to float), not the raw memory
                # word: the word can be the other domain's type — e.g. an
                # FST'd float re-read by LD — and the trace value is what
                # the timing model's vector elements validate against.
                addr = (s1 if int_a else s64(int(s1))) + imm
                value = fn(load(addr))
                if exact:
                    regs[rd] = value
                else:
                    _write(regs, rd, value)
            elif kind == BRANCH:
                value = 0
                if fn(s1, s2):
                    taken = True
                    next_pc = target
            elif kind == STORE:
                addr = (s1 if int_a else s64(int(s1))) + imm
                value = s2
                store(addr, value)
            elif kind == JUMP:
                value = 0
                taken = True
                next_pc = target
            elif kind == JAL:
                taken = True
                value = pc + 1
                if exact:
                    regs[rd] = value
                else:
                    _write(regs, rd, value)
                next_pc = target
            elif kind == JR:
                value = 0
                taken = True
                next_pc = s1 if int_a else s64(int(s1))
                if not 0 <= next_pc < n:
                    raise ExecutionError(
                        f"JR at pc {pc} targets invalid instruction {next_pc}"
                    )
            else:
                value = 0
                if kind == HALT:
                    halted = True
                    next_pc = pc

            append(
                TraceEntry(
                    seq, pc, op, rd, rs1, rs2, imm, s1, s2, value, addr, taken, next_pc
                )
            )
            seq += 1
            if halted:
                break
            pc = next_pc

        return Trace(
            program=program,
            entries=entries,
            initial_memory=self._initial_memory,
            final_memory=self.memory,
            final_int_regs=regs[:FP_BASE],
            final_fp_regs=regs[FP_BASE:],
            halted=halted,
        )


def run_program(program: Program, max_instructions: int = 2_000_000) -> Trace:
    """Execute ``program`` and return its :class:`Trace` (convenience)."""
    return Interpreter(program, max_instructions=max_instructions).run()
