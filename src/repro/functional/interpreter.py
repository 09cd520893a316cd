"""The architectural (functional) interpreter.

Executes a :class:`~repro.isa.program.Program` to completion (or an
instruction cap) and emits a :class:`~repro.functional.trace.Trace`.  This
is the reference semantics of the machine: the timing model replays its
entries, the vector datapath's results are validated against its values,
and the property-based tests compare everything back to it.
"""

from __future__ import annotations

from ..isa.instruction import Instruction
from ..isa.opcodes import (
    BRANCH_OPS,
    INT_RI_OPS,
    INT_RR_OPS,
    Opcode,
)
from ..isa.program import Program
from ..isa.registers import FP_BASE, NO_REG, NUM_FP_REGS, NUM_INT_REGS, ZERO_REG
from .memory import MemoryImage
from .semantics import apply_alu, branch_taken, s64
from .trace import Trace, TraceEntry


class ExecutionError(Exception):
    """Raised for architecturally invalid execution (bad JR target, ...)."""


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
        self.int_regs = [0] * NUM_INT_REGS
        self.fp_regs = [0.0] * NUM_FP_REGS
        self.memory = MemoryImage(dict(program.data))
        self._initial_memory = self.memory.copy()

    # ------------------------------------------------------------------

    def _read(self, reg: int):
        if reg >= FP_BASE:
            return self.fp_regs[reg - FP_BASE]
        return self.int_regs[reg]

    def _write(self, reg: int, value) -> None:
        if reg >= FP_BASE:
            self.fp_regs[reg - FP_BASE] = float(value)
        elif reg != ZERO_REG:
            self.int_regs[reg] = s64(int(value))

    # ------------------------------------------------------------------

    def run(self) -> Trace:
        """Execute until HALT, fall-off-end, or the instruction cap."""
        program = self.program
        instrs = program.instructions
        n = len(instrs)
        entries = []
        append = entries.append
        pc = program.entry
        seq = 0
        halted = False
        max_n = self.max_instructions
        memory = self.memory

        while seq < max_n and 0 <= pc < n:
            ins: Instruction = instrs[pc]
            op = ins.op
            rd, rs1, rs2, imm = ins.rd, ins.rs1, ins.rs2, ins.imm
            s1 = self._read(rs1) if rs1 != NO_REG else 0
            s2 = self._read(rs2) if rs2 != NO_REG else 0
            value = 0
            addr = -1
            taken = False
            next_pc = pc + 1

            if op is Opcode.LD or op is Opcode.FLD:
                addr = s64(int(s1)) + imm
                # Record what the destination register receives (LD wraps
                # to int64, FLD coerces to float), not the raw memory
                # word: the word can be the other domain's type — e.g. an
                # FST'd float re-read by LD — and the trace value is what
                # the timing model's vector elements validate against.
                word = memory.load(addr)
                value = float(word) if op is Opcode.FLD else s64(int(word))
                self._write(rd, value)
            elif op is Opcode.ST or op is Opcode.FST:
                addr = s64(int(s1)) + imm
                value = s2
                memory.store(addr, value)
            elif op in BRANCH_OPS:
                taken = branch_taken(op, s1, s2)
                if taken:
                    next_pc = ins.target
            elif op is Opcode.J:
                taken = True
                next_pc = ins.target
            elif op is Opcode.JAL:
                taken = True
                value = pc + 1
                self._write(rd, value)
                next_pc = ins.target
            elif op is Opcode.JR:
                taken = True
                next_pc = s64(int(s1))
                if not 0 <= next_pc < n:
                    raise ExecutionError(
                        f"JR at pc {pc} targets invalid instruction {next_pc}"
                    )
            elif op is Opcode.HALT:
                halted = True
                next_pc = pc
            elif op is Opcode.NOP:
                pass
            else:
                # All remaining opcodes are register arithmetic.
                b = s2 if (op in INT_RR_OPS or ins.rs2 != NO_REG) else imm
                if op is Opcode.LI or op in INT_RI_OPS:
                    b = imm
                value = apply_alu(op, s1, b)
                self._write(rd, value)

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
            final_int_regs=list(self.int_regs),
            final_fp_regs=list(self.fp_regs),
            halted=halted,
        )


def run_program(program: Program, max_instructions: int = 2_000_000) -> Trace:
    """Execute ``program`` and return its :class:`Trace` (convenience)."""
    return Interpreter(program, max_instructions=max_instructions).run()
