"""The paper's contribution: speculative dynamic vectorization.

Structures map one-to-one onto the paper's §3: the Table of Loads
(stride detection), the VRMT (PC -> vector register map), the vector
register file with per-element V/R/U/F flags and MRBB-based freeing, and
the engine that turns scalar instructions into vector instances and
validations inside the out-of-order pipeline.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": (
        "MisspeculationError",
        "VectorAluInstance",
        "VectorizationEngine",
    ),
    ".table_of_loads": (
        "TableOfLoads",
        "TLEntry",
    ),
    ".tables": (
        "SetAssocTable",
    ),
    ".vector_regfile": (
        "VectorRegister",
        "VectorRegisterFile",
    ),
    ".vrmt": (
        "VRMT",
    ),
})
