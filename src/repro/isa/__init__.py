"""The repro instruction-set architecture.

A 64-bit RISC-like ISA: 32 integer + 32 floating-point registers, loads and
stores with register+immediate addressing, conditional branches, and direct
and indirect jumps.  See :mod:`repro.isa.opcodes` for the opcode inventory
and DESIGN.md §2 for why any RISC ISA suffices for the paper's mechanism.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".assembler": (
        "Assembler",
        "AssemblerError",
        "assemble",
    ),
    ".instruction": (
        "Instruction",
    ),
    ".opcodes": (
        "FU_LATENCY",
        "FuClass",
        "Opcode",
        "fu_class_of",
    ),
    ".program": (
        "INSTR_BYTES",
        "Program",
        "ProgramError",
        "WORD_SIZE",
    ),
    ".registers": (
        "FP_BASE",
        "NO_REG",
        "NUM_FP_REGS",
        "NUM_INT_REGS",
        "NUM_LOGICAL_REGS",
        "ZERO_REG",
        "fp_reg",
        "int_reg",
        "is_fp",
        "parse_reg",
        "reg_name",
    ),
})
