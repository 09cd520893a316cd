"""Structured program builder: a small DSL over the repro ISA.

Writing the synthetic SPEC95-like workloads directly in assembly text would
be unreadable; :class:`ProgramBuilder` provides register allocation, data
layout and structured control flow (counted loops, if-blocks) while still
emitting plain :class:`~repro.isa.instruction.Instruction` objects, so the
result is an ordinary :class:`~repro.isa.program.Program`.

Design notes:

* Counted loops close with a *backward conditional branch*, the shape the
  paper's GMRBB loop-tracking heuristic (§3.3) expects.
* Registers are explicitly allocated/released; exhausting the pool raises
  instead of silently clobbering, which keeps generated kernels honest.
* All data lives in a bump-allocated segment starting at ``DATA_BASE``.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..isa.assembler import DATA_BASE
from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.program import Program, WORD_SIZE
from ..isa.registers import NUM_INT_REGS, fp_reg, int_reg

Number = Union[int, float]

#: Words in the reserved guard band directly below the data segment.
STACK_GUARD_WORDS = 64
#: The guard band ``[STACK_GUARD_BASE, DATA_BASE)`` separates the
#: low-address region (code indices, scratch) from builder-allocated data.
#: Nothing may store into it: a fuzz-shaped program whose computed store
#: target lands there is aliasing outside its own data segment, and such
#: stores can mask real coherence divergences (the store "hits" words no
#: vector range will ever cover instead of the live array it was aimed at).
STACK_GUARD_BASE = DATA_BASE - STACK_GUARD_WORDS * WORD_SIZE


class BuilderError(Exception):
    """Raised on misuse of the builder (register exhaustion, bad label...)."""


class ProgramBuilder:
    """Incrementally construct a :class:`Program`.

    Integer registers ``r1..r27`` and fp registers ``f0..f27`` form the
    allocatable pool; ``r28..r31``/``f28..f31`` are reserved for kernels
    that want fixed scratch registers, and ``r0`` is the hardwired zero.
    """

    #: First integer register NOT handed out by :meth:`ireg`.
    INT_POOL_LIMIT = 28
    #: First fp register NOT handed out by :meth:`freg`.
    FP_POOL_LIMIT = 28

    def __init__(self) -> None:
        self.instructions: List[Instruction] = []
        self.labels: Dict[str, int] = {}
        self.data: Dict[int, Number] = {}
        self._next_data = DATA_BASE
        self._next_label = 0
        self._free_int = list(range(self.INT_POOL_LIMIT - 1, 0, -1))
        self._free_fp = list(range(self.FP_POOL_LIMIT - 1, -1, -1))

    # -- data segment --------------------------------------------------------

    def array(
        self, length: int, init: Optional[Sequence[Number]] = None, align: int = 1
    ) -> int:
        """Allocate ``length`` words, optionally initialized; return base address.

        ``align`` is in words; ``align=4`` puts the array on a cache-line
        boundary (32-byte lines of 4 words), which the wide-bus experiments
        use to control how strided streams straddle lines.
        """
        if length <= 0:
            raise BuilderError("array length must be positive")
        if init is not None and len(init) != length:
            raise BuilderError("init length mismatch")
        step = align * WORD_SIZE
        if step and self._next_data % step:
            self._next_data += step - self._next_data % step
        base = self._next_data
        for i in range(length):
            self.data[base + i * WORD_SIZE] = init[i] if init is not None else 0
        self._next_data = base + length * WORD_SIZE
        return base

    def word(self, value: Number = 0) -> int:
        """Allocate a single initialized word; return its address."""
        return self.array(1, [value])

    @staticmethod
    def check_store_target(addr: int) -> int:
        """Validate a statically-known store target address; returns it.

        Rejects (``BuilderError``) targets inside the stack guard band
        ``[STACK_GUARD_BASE, DATA_BASE)``.  Misaligned targets are left to
        the architectural :class:`~repro.functional.memory.MemoryImage` to
        reject at run time.  Generators that compute concrete store
        addresses (the fuzzer's RMW/stride-perturbation operators) call
        this before committing to an offset, so guard-aliasing stores are
        rejected loudly instead of silently landing outside the data
        segment.
        """
        if STACK_GUARD_BASE <= addr < DATA_BASE:
            raise BuilderError(
                f"store target {addr:#x} aliases the stack guard region "
                f"[{STACK_GUARD_BASE:#x}, {DATA_BASE:#x})"
            )
        return addr

    # -- register pool ---------------------------------------------------------

    def ireg(self) -> int:
        """Allocate a scratch integer register (encoded id)."""
        if not self._free_int:
            raise BuilderError("integer register pool exhausted")
        return int_reg(self._free_int.pop())

    def freg(self) -> int:
        """Allocate a scratch floating-point register (encoded id)."""
        if not self._free_fp:
            raise BuilderError("fp register pool exhausted")
        return fp_reg(self._free_fp.pop())

    def release(self, *regs: int) -> None:
        """Return registers to the pool."""
        for reg in regs:
            if reg >= NUM_INT_REGS:
                index = reg - NUM_INT_REGS
                if index >= self.FP_POOL_LIMIT:
                    continue
                if index in self._free_fp:
                    raise BuilderError(f"double release of f{index}")
                self._free_fp.append(index)
            else:
                if reg == 0 or reg >= self.INT_POOL_LIMIT:
                    continue
                if reg in self._free_int:
                    raise BuilderError(f"double release of r{reg}")
                self._free_int.append(reg)

    @contextlib.contextmanager
    def scratch_ireg(self) -> Iterator[int]:
        """Context-managed integer scratch register."""
        reg = self.ireg()
        try:
            yield reg
        finally:
            self.release(reg)

    # -- raw emission ------------------------------------------------------------

    def emit(self, instruction: Instruction) -> None:
        """Append a raw instruction."""
        self.instructions.append(instruction)

    def label(self, name: Optional[str] = None) -> str:
        """Place (and return) a label at the current position."""
        if name is None:
            name = f"L{self._next_label}"
            self._next_label += 1
        if name in self.labels:
            raise BuilderError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions)
        return name

    def fresh_label(self) -> str:
        """Reserve a label name to be placed later with :meth:`place`."""
        name = f"L{self._next_label}"
        self._next_label += 1
        return name

    def place(self, name: str) -> None:
        """Place a previously reserved label here."""
        if name in self.labels:
            raise BuilderError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions)

    # -- mnemonics ------------------------------------------------------------

    def li(self, rd: int, imm: int) -> None:
        self.emit(Instruction(Opcode.LI, rd=rd, imm=imm))

    def add(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.ADD, rd=rd, rs1=rs1, rs2=rs2))

    def sub(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.SUB, rd=rd, rs1=rs1, rs2=rs2))

    def mul(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.MUL, rd=rd, rs1=rs1, rs2=rs2))

    def div(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.DIV, rd=rd, rs1=rs1, rs2=rs2))

    def rem(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.REM, rd=rd, rs1=rs1, rs2=rs2))

    def and_(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.AND, rd=rd, rs1=rs1, rs2=rs2))

    def or_(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.OR, rd=rd, rs1=rs1, rs2=rs2))

    def xor(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.XOR, rd=rd, rs1=rs1, rs2=rs2))

    def sll(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.SLL, rd=rd, rs1=rs1, rs2=rs2))

    def srl(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.SRL, rd=rd, rs1=rs1, rs2=rs2))

    def slt(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.SLT, rd=rd, rs1=rs1, rs2=rs2))

    def addi(self, rd: int, rs1: int, imm: int) -> None:
        self.emit(Instruction(Opcode.ADDI, rd=rd, rs1=rs1, imm=imm))

    def andi(self, rd: int, rs1: int, imm: int) -> None:
        self.emit(Instruction(Opcode.ANDI, rd=rd, rs1=rs1, imm=imm))

    def ori(self, rd: int, rs1: int, imm: int) -> None:
        self.emit(Instruction(Opcode.ORI, rd=rd, rs1=rs1, imm=imm))

    def xori(self, rd: int, rs1: int, imm: int) -> None:
        self.emit(Instruction(Opcode.XORI, rd=rd, rs1=rs1, imm=imm))

    def slli(self, rd: int, rs1: int, imm: int) -> None:
        self.emit(Instruction(Opcode.SLLI, rd=rd, rs1=rs1, imm=imm))

    def srli(self, rd: int, rs1: int, imm: int) -> None:
        self.emit(Instruction(Opcode.SRLI, rd=rd, rs1=rs1, imm=imm))

    def slti(self, rd: int, rs1: int, imm: int) -> None:
        self.emit(Instruction(Opcode.SLTI, rd=rd, rs1=rs1, imm=imm))

    def fadd(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.FADD, rd=rd, rs1=rs1, rs2=rs2))

    def fsub(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.FSUB, rd=rd, rs1=rs1, rs2=rs2))

    def fmul(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.FMUL, rd=rd, rs1=rs1, rs2=rs2))

    def fdiv(self, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(Opcode.FDIV, rd=rd, rs1=rs1, rs2=rs2))

    def fneg(self, rd: int, rs1: int) -> None:
        self.emit(Instruction(Opcode.FNEG, rd=rd, rs1=rs1))

    def fabs_(self, rd: int, rs1: int) -> None:
        self.emit(Instruction(Opcode.FABS, rd=rd, rs1=rs1))

    def fmov(self, rd: int, rs1: int) -> None:
        self.emit(Instruction(Opcode.FMOV, rd=rd, rs1=rs1))

    def fsqrt(self, rd: int, rs1: int) -> None:
        self.emit(Instruction(Opcode.FSQRT, rd=rd, rs1=rs1))

    def itof(self, rd: int, rs1: int) -> None:
        self.emit(Instruction(Opcode.ITOF, rd=rd, rs1=rs1))

    def ftoi(self, rd: int, rs1: int) -> None:
        self.emit(Instruction(Opcode.FTOI, rd=rd, rs1=rs1))

    def ld(self, rd: int, offset: int, base: int) -> None:
        self.emit(Instruction(Opcode.LD, rd=rd, rs1=base, imm=offset))

    def st(self, rs: int, offset: int, base: int) -> None:
        if base == 0:
            self.check_store_target(offset)
        self.emit(Instruction(Opcode.ST, rs2=rs, rs1=base, imm=offset))

    def fld(self, rd: int, offset: int, base: int) -> None:
        self.emit(Instruction(Opcode.FLD, rd=rd, rs1=base, imm=offset))

    def fst(self, rs: int, offset: int, base: int) -> None:
        if base == 0:
            self.check_store_target(offset)
        self.emit(Instruction(Opcode.FST, rs2=rs, rs1=base, imm=offset))

    def beq(self, rs1: int, rs2: int, label: str) -> None:
        self.emit(Instruction(Opcode.BEQ, rs1=rs1, rs2=rs2, label=label))

    def bne(self, rs1: int, rs2: int, label: str) -> None:
        self.emit(Instruction(Opcode.BNE, rs1=rs1, rs2=rs2, label=label))

    def blt(self, rs1: int, rs2: int, label: str) -> None:
        self.emit(Instruction(Opcode.BLT, rs1=rs1, rs2=rs2, label=label))

    def bge(self, rs1: int, rs2: int, label: str) -> None:
        self.emit(Instruction(Opcode.BGE, rs1=rs1, rs2=rs2, label=label))

    def j(self, label: str) -> None:
        self.emit(Instruction(Opcode.J, label=label))

    def jal(self, rd: int, label: str) -> None:
        self.emit(Instruction(Opcode.JAL, rd=rd, label=label))

    def jr(self, rs1: int) -> None:
        self.emit(Instruction(Opcode.JR, rs1=rs1))

    def nop(self) -> None:
        self.emit(Instruction(Opcode.NOP))

    def halt(self) -> None:
        self.emit(Instruction(Opcode.HALT))

    # -- structured control ------------------------------------------------------

    @contextlib.contextmanager
    def loop(self, count: int) -> Iterator[int]:
        """A counted loop; yields the counter register (0, 1, ... count-1).

        The loop closes with ``slti``/``bne`` backward, i.e. a classic
        loop-closing backward branch.  ``count`` must be at least 1.
        """
        if count < 1:
            raise BuilderError("loop count must be >= 1")
        counter = self.ireg()
        cond = self.ireg()
        self.li(counter, 0)
        head = self.label()
        try:
            yield counter
        finally:
            self.addi(counter, counter, 1)
            self.slti(cond, counter, count)
            self.bne(cond, 0, head)
            self.release(counter, cond)

    @contextlib.contextmanager
    def while_nonzero(self, reg: int) -> Iterator[None]:
        """Loop while ``reg`` is nonzero (test at the top, backward branch)."""
        done = self.fresh_label()
        head = self.label()
        self.beq(reg, 0, done)
        try:
            yield
        finally:
            self.j(head)
            self.place(done)

    @contextlib.contextmanager
    def if_nonzero(self, reg: int) -> Iterator[None]:
        """Execute the body only when ``reg`` is nonzero (forward branch)."""
        skip = self.fresh_label()
        self.beq(reg, 0, skip)
        try:
            yield
        finally:
            self.place(skip)

    @contextlib.contextmanager
    def if_zero(self, reg: int) -> Iterator[None]:
        """Execute the body only when ``reg`` is zero (forward branch)."""
        skip = self.fresh_label()
        self.bne(reg, 0, skip)
        try:
            yield
        finally:
            self.place(skip)

    # -- finish ----------------------------------------------------------------

    def build(self, entry: int = 0) -> Program:
        """Finalize into a :class:`Program` (labels resolved, checked)."""
        return Program(
            list(self.instructions), labels=dict(self.labels), data=dict(self.data), entry=entry
        )
