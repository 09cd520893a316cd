"""A small two-pass assembler for the repro ISA.

The surface syntax is classic RISC assembly::

    .data
    arr:  .word 1 2 3 4
    buf:  .space 64            ; 64 zero-initialized words

    .text
    start:
        li   r1, arr           ; data labels become addresses
        li   r2, 0
    loop:
        ld   r3, 0(r1)
        add  r2, r2, r3
        addi r1, r1, 8
        addi r4, r4, 1
        slti r5, r4, 4
        bne  r5, r0, loop
        halt

Comments start with ``;`` or ``#``.  Immediates may be decimal, hex
(``0x..``), negative, or the name of a ``.data`` label (which resolves to
the label's byte address).  Code labels may only be used by control-flow
instructions; data labels only as immediates.

Two passes: the first collects labels and lays out the data segment, the
second encodes instructions.  All errors carry the 1-based source line.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple, Union

from .instruction import Instruction
from .opcodes import Opcode
from .program import Program, ProgramError, WORD_SIZE
from .registers import parse_reg

#: Byte address where the assembler places the first ``.data`` word.
DATA_BASE = 0x1000

Number = Union[int, float]


class AssemblerError(ProgramError):
    """Raised with the offending source line for any syntax error."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_MEM_OPERAND = re.compile(r"^(-?\w+)\((\w+)\)$")

#: Mnemonics taking ``rd, rs1, rs2``.
_RR3 = {
    "add": Opcode.ADD,
    "sub": Opcode.SUB,
    "mul": Opcode.MUL,
    "div": Opcode.DIV,
    "rem": Opcode.REM,
    "and": Opcode.AND,
    "or": Opcode.OR,
    "xor": Opcode.XOR,
    "sll": Opcode.SLL,
    "srl": Opcode.SRL,
    "sra": Opcode.SRA,
    "slt": Opcode.SLT,
    "fadd": Opcode.FADD,
    "fsub": Opcode.FSUB,
    "fmul": Opcode.FMUL,
    "fdiv": Opcode.FDIV,
}

#: Mnemonics taking ``rd, rs1, imm``.
_RI3 = {
    "addi": Opcode.ADDI,
    "andi": Opcode.ANDI,
    "ori": Opcode.ORI,
    "xori": Opcode.XORI,
    "slli": Opcode.SLLI,
    "srli": Opcode.SRLI,
    "srai": Opcode.SRAI,
    "slti": Opcode.SLTI,
}

#: Mnemonics taking ``rd, rs1``.
_RR2 = {
    "fneg": Opcode.FNEG,
    "fabs": Opcode.FABS,
    "fmov": Opcode.FMOV,
    "fsqrt": Opcode.FSQRT,
    "itof": Opcode.ITOF,
    "ftoi": Opcode.FTOI,
}

_LOADS = {"ld": Opcode.LD, "fld": Opcode.FLD}
_STORES = {"st": Opcode.ST, "fst": Opcode.FST}
_BRANCHES = {
    "beq": Opcode.BEQ,
    "bne": Opcode.BNE,
    "blt": Opcode.BLT,
    "bge": Opcode.BGE,
}


def _strip(line: str) -> str:
    for marker in (";", "#"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _split_operands(rest: str) -> List[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


class Assembler:
    """Two-pass assembler; see module docstring for the accepted syntax."""

    def __init__(self) -> None:
        self._data: Dict[int, Number] = {}
        self._data_labels: Dict[str, int] = {}
        self._code_labels: Dict[str, int] = {}
        self._next_data_addr = DATA_BASE

    # -- pass 1 helpers -----------------------------------------------------

    def _define_data_label(self, lineno: int, name: str) -> None:
        if name in self._data_labels or name in self._code_labels:
            raise AssemblerError(lineno, f"duplicate label {name!r}")
        self._data_labels[name] = self._next_data_addr

    def _define_code_label(self, lineno: int, name: str, index: int) -> None:
        if name in self._data_labels or name in self._code_labels:
            raise AssemblerError(lineno, f"duplicate label {name!r}")
        self._code_labels[name] = index

    def _emit_words(self, lineno: int, tokens: List[str]) -> None:
        for token in tokens:
            try:
                value: Number = (
                    float(token) if ("." in token or "e" in token.lower() and not token.lower().startswith("0x")) else int(token, 0)
                )
            except ValueError as exc:
                raise AssemblerError(lineno, f"bad data word {token!r}") from exc
            self._data[self._next_data_addr] = value
            self._next_data_addr += WORD_SIZE

    def _emit_space(self, lineno: int, tokens: List[str]) -> None:
        if len(tokens) != 1 or not tokens[0].isdigit():
            raise AssemblerError(lineno, ".space takes one word count")
        for _ in range(int(tokens[0])):
            self._data[self._next_data_addr] = 0
            self._next_data_addr += WORD_SIZE

    # -- immediates ----------------------------------------------------------

    def _imm(self, lineno: int, token: str) -> int:
        token = token.strip()
        if token in self._data_labels:
            return self._data_labels[token]
        try:
            return int(token, 0)
        except ValueError as exc:
            raise AssemblerError(lineno, f"bad immediate {token!r}") from exc

    def _reg(self, lineno: int, token: str) -> int:
        try:
            return parse_reg(token)
        except ValueError as exc:
            raise AssemblerError(lineno, str(exc)) from exc

    # -- pass 2: encode one instruction ---------------------------------------

    def _encode(self, lineno: int, mnemonic: str, ops: List[str]) -> Instruction:
        m = mnemonic
        if m in _RR3:
            if len(ops) != 3:
                raise AssemblerError(lineno, f"{m} takes 3 operands")
            return Instruction(
                _RR3[m],
                rd=self._reg(lineno, ops[0]),
                rs1=self._reg(lineno, ops[1]),
                rs2=self._reg(lineno, ops[2]),
            )
        if m in _RI3:
            if len(ops) != 3:
                raise AssemblerError(lineno, f"{m} takes 3 operands")
            return Instruction(
                _RI3[m],
                rd=self._reg(lineno, ops[0]),
                rs1=self._reg(lineno, ops[1]),
                imm=self._imm(lineno, ops[2]),
            )
        if m in _RR2:
            if len(ops) != 2:
                raise AssemblerError(lineno, f"{m} takes 2 operands")
            return Instruction(
                _RR2[m],
                rd=self._reg(lineno, ops[0]),
                rs1=self._reg(lineno, ops[1]),
            )
        if m == "li":
            if len(ops) != 2:
                raise AssemblerError(lineno, "li takes 2 operands")
            return Instruction(
                Opcode.LI, rd=self._reg(lineno, ops[0]), imm=self._imm(lineno, ops[1])
            )
        if m in _LOADS or m in _STORES:
            if len(ops) != 2:
                raise AssemblerError(lineno, f"{m} takes 2 operands")
            match = _MEM_OPERAND.match(ops[1].replace(" ", ""))
            if not match:
                raise AssemblerError(lineno, f"bad memory operand {ops[1]!r}")
            imm = self._imm(lineno, match.group(1))
            base = self._reg(lineno, match.group(2))
            if m in _LOADS:
                return Instruction(
                    _LOADS[m], rd=self._reg(lineno, ops[0]), rs1=base, imm=imm
                )
            return Instruction(
                _STORES[m], rs2=self._reg(lineno, ops[0]), rs1=base, imm=imm
            )
        if m in _BRANCHES:
            if len(ops) != 3:
                raise AssemblerError(lineno, f"{m} takes 3 operands")
            return Instruction(
                _BRANCHES[m],
                rs1=self._reg(lineno, ops[0]),
                rs2=self._reg(lineno, ops[1]),
                label=ops[2],
            )
        if m == "j":
            if len(ops) != 1:
                raise AssemblerError(lineno, "j takes 1 operand")
            return Instruction(Opcode.J, label=ops[0])
        if m == "jal":
            if len(ops) != 2:
                raise AssemblerError(lineno, "jal takes 2 operands")
            return Instruction(Opcode.JAL, rd=self._reg(lineno, ops[0]), label=ops[1])
        if m == "jr":
            if len(ops) != 1:
                raise AssemblerError(lineno, "jr takes 1 operand")
            return Instruction(Opcode.JR, rs1=self._reg(lineno, ops[0]))
        if m == "nop":
            return Instruction(Opcode.NOP)
        if m == "halt":
            return Instruction(Opcode.HALT)
        raise AssemblerError(lineno, f"unknown mnemonic {m!r}")

    # -- driver ----------------------------------------------------------------

    def assemble(self, text: str) -> Program:
        """Assemble ``text`` into a finalized :class:`Program`."""
        # Pass 1: collect labels, lay out data, gather raw instruction lines.
        in_data = False
        raw: List[Tuple[int, str, List[str]]] = []  # (lineno, mnemonic, operands)
        for lineno, rawline in enumerate(text.splitlines(), start=1):
            line = _strip(rawline)
            if not line:
                continue
            if line == ".data":
                in_data = True
                continue
            if line == ".text":
                in_data = False
                continue
            while ":" in line:
                name, _, line = line.partition(":")
                name = name.strip()
                if not name.isidentifier():
                    raise AssemblerError(lineno, f"bad label {name!r}")
                if in_data:
                    self._define_data_label(lineno, name)
                else:
                    self._define_code_label(lineno, name, len(raw))
                line = line.strip()
            if not line:
                continue
            parts = line.split(None, 1)
            head = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            if in_data:
                tokens = rest.split()
                if head == ".word":
                    self._emit_words(lineno, tokens)
                elif head == ".space":
                    self._emit_space(lineno, tokens)
                else:
                    raise AssemblerError(lineno, f"unknown data directive {head!r}")
            else:
                raw.append((lineno, head, _split_operands(rest)))

        # Pass 2: encode.
        instructions = [self._encode(lineno, m, ops) for lineno, m, ops in raw]
        try:
            return Program(instructions, labels=self._code_labels, data=self._data)
        except ProgramError as exc:
            raise AssemblerError(0, str(exc)) from exc


def assemble(text: str) -> Program:
    """Assemble ``text`` (module-level convenience wrapper)."""
    return Assembler().assemble(text)
