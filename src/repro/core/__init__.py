"""The paper's contribution: speculative dynamic vectorization.

Structures map one-to-one onto the paper's §3: the Table of Loads
(stride detection), the VRMT (PC -> vector register map), the vector
register file with per-element V/R/U/F flags and MRBB-based freeing, and
the engine that turns scalar instructions into vector instances and
validations inside the out-of-order pipeline.
"""

from .engine import MisspeculationError, VectorAluInstance, VectorizationEngine
from .table_of_loads import TableOfLoads, TLEntry
from .tables import SetAssocTable
from .vector_regfile import VectorRegister, VectorRegisterFile
from .vrmt import VRMT, VRMTEntry

__all__ = [
    "MisspeculationError",
    "VectorAluInstance",
    "VectorizationEngine",
    "TableOfLoads",
    "TLEntry",
    "SetAssocTable",
    "VectorRegister",
    "VectorRegisterFile",
    "VRMT",
    "VRMTEntry",
]
