"""The :class:`Instruction` record and its classification helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .opcodes import (
    BRANCH_OPS,
    CONTROL_OPS,
    FuClass,
    LOAD_OPS,
    Opcode,
    STORE_OPS,
    fu_class_of,
)
from .registers import NO_REG, reg_name


@dataclass(slots=True)
class Instruction:
    """One static instruction.

    Register fields use the flat encoding of :mod:`repro.isa.registers`
    (``NO_REG`` when absent).  Control-flow targets are held symbolically in
    ``label`` until :meth:`repro.isa.program.Program.finalize` resolves them
    into ``target`` (an instruction index — the simulator's PCs are
    instruction indices, not byte addresses).

    Field conventions by opcode family:

    * int/fp ALU: ``rd``, ``rs1`` (and ``rs2`` or ``imm``)
    * loads: ``rd``, ``rs1`` = base, ``imm`` = byte offset
    * stores: ``rs2`` = value source, ``rs1`` = base, ``imm`` = byte offset
    * branches: ``rs1``, ``rs2`` compared; ``label``/``target``
    * ``JR``: ``rs1`` holds the target instruction index
    """

    op: Opcode
    rd: int = NO_REG
    rs1: int = NO_REG
    rs2: int = NO_REG
    imm: int = 0
    label: Optional[str] = None
    target: int = -1

    # -- classification ----------------------------------------------------

    @property
    def is_load(self) -> bool:
        """True for ``LD``/``FLD``."""
        return self.op in LOAD_OPS

    @property
    def is_store(self) -> bool:
        """True for ``ST``/``FST``."""
        return self.op in STORE_OPS

    @property
    def is_branch(self) -> bool:
        """True for conditional branches only."""
        return self.op in BRANCH_OPS

    @property
    def is_control(self) -> bool:
        """True for branches and jumps."""
        return self.op in CONTROL_OPS

    @property
    def fu_class(self) -> FuClass:
        """Functional-unit class executing this instruction."""
        return fu_class_of(self.op)

    def sources(self) -> tuple:
        """Encoded ids of the source registers actually read (no NO_REG)."""
        srcs = []
        if self.rs1 != NO_REG:
            srcs.append(self.rs1)
        if self.rs2 != NO_REG:
            srcs.append(self.rs2)
        return tuple(srcs)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        name = self.op.name.lower()
        if self.is_load:
            return f"{name} {reg_name(self.rd)}, {self.imm}({reg_name(self.rs1)})"
        if self.is_store:
            return f"{name} {reg_name(self.rs2)}, {self.imm}({reg_name(self.rs1)})"
        if self.is_branch:
            where = self.label if self.label is not None else f"@{self.target}"
            return f"{name} {reg_name(self.rs1)}, {reg_name(self.rs2)}, {where}"
        if self.op in (Opcode.J, Opcode.JAL):
            where = self.label if self.label is not None else f"@{self.target}"
            if self.op is Opcode.JAL:
                return f"{name} {reg_name(self.rd)}, {where}"
            return f"{name} {where}"
        if self.op is Opcode.JR:
            return f"{name} {reg_name(self.rs1)}"
        if self.op in (Opcode.NOP, Opcode.HALT):
            return name
        parts = [reg_name(self.rd)]
        if self.rs1 != NO_REG:
            parts.append(reg_name(self.rs1))
        if self.rs2 != NO_REG:
            parts.append(reg_name(self.rs2))
        elif self.op.name.endswith("I") or self.op is Opcode.LI:
            parts.append(str(self.imm))
        return f"{name} " + ", ".join(parts)
