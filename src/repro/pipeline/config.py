"""Machine configuration (Table 1 of the paper) and mode presets.

The paper evaluates a 4-way and an 8-way superscalar core, each with 1, 2
or 4 L1 data-cache ports, in three memory organisations:

* ``noIM`` — scalar buses (one word per port transaction);
* ``IM``   — wide buses (a 4-word line per transaction, pending loads to
  the same line coalesce);
* ``V``    — wide buses plus speculative dynamic vectorization.

:func:`make_config` builds any point of that grid; :func:`config_name`
renders the paper's labels (``1pnoIM`` .. ``4pV``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..isa.opcodes import FuClass
from ..memory.hierarchy import HierarchyConfig


@dataclass
class VectorConfig:
    """Parameters of the dynamic-vectorization hardware (Table 1 + §4.1)."""

    #: vector registers (paper: 128) and elements per register (paper: 4).
    num_registers: int = 128
    vector_length: int = 4
    #: Table of Loads geometry: 4-way set associative, 512 sets.
    tl_ways: int = 4
    tl_sets: int = 512
    #: confidence threshold before a load vectorizes (paper §3.2: >= 2).
    confidence_threshold: int = 2
    #: VRMT geometry: 4-way set associative, 64 sets.
    vrmt_ways: int = 4
    vrmt_sets: int = 64
    #: paper §3.2: a mixed vector/scalar instruction blocks at decode until
    #: the scalar register value is available ("real"); False models the
    #: "ideal" bars of Fig 7.
    block_on_scalar_operand: bool = True
    #: §3.6: at most this many stores may commit per cycle (coherence-check
    #: logic complexity).
    max_store_commit: int = 2
    #: failure damping on the Table of Loads (see its docstring); True is
    #: this reproduction's default, False is the paper's literal text.
    tl_damping: bool = True


@dataclass
class MachineConfig:
    """Full machine description for one simulation."""

    width: int = 4
    rob_size: int = 128
    lsq_size: int = 32
    #: functional-unit counts by pool; mul/div share a pool per Table 1.
    int_simple_units: int = 3
    int_muldiv_units: int = 2
    fp_simple_units: int = 2
    fp_muldiv_units: int = 1
    #: L1 data ports and their kind.
    ports: int = 1
    wide_bus: bool = False
    #: the paper's mechanism on/off.
    vectorize: bool = False
    #: front-end refill cycles after a mispredicted branch resolves.
    mispredict_penalty: int = 2
    gshare_entries: int = 64 * 1024
    fetch_queue_size: int = 0  # 0 -> 2 * width
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    vector: VectorConfig = field(default_factory=VectorConfig)
    #: run the soundness assertions (committed validation == architectural
    #: value).  Costs a little time; leave on everywhere but the innermost
    #: benchmark loops.
    check_invariants: bool = True

    def __post_init__(self) -> None:
        if self.fetch_queue_size <= 0:
            self.fetch_queue_size = 2 * self.width
        if self.vectorize and not self.wide_bus:
            # The paper only evaluates vectorization together with wide
            # buses; the engine itself would work either way, but keep the
            # configuration space identical to the paper's.
            raise ValueError("vectorize=True requires wide_bus=True (paper's V mode)")

    @property
    def commit_width(self) -> int:
        return self.width

    def fu_pool_sizes(self) -> Dict[FuClass, int]:
        """Scalar (and mirrored vector) functional-unit counts per class."""
        return {
            FuClass.INT_SIMPLE: self.int_simple_units,
            FuClass.INT_MUL: self.int_muldiv_units,
            FuClass.INT_DIV: self.int_muldiv_units,
            FuClass.FP_SIMPLE: self.fp_simple_units,
            FuClass.FP_MUL: self.fp_muldiv_units,
            FuClass.FP_DIV: self.fp_muldiv_units,
        }


def four_way(ports: int = 1, wide_bus: bool = False, vectorize: bool = False) -> MachineConfig:
    """The paper's 4-way configuration (Table 1, left column)."""
    return MachineConfig(
        width=4,
        rob_size=128,
        lsq_size=32,
        int_simple_units=3,
        int_muldiv_units=2,
        fp_simple_units=2,
        fp_muldiv_units=1,
        ports=ports,
        wide_bus=wide_bus,
        vectorize=vectorize,
    )


def eight_way(ports: int = 1, wide_bus: bool = False, vectorize: bool = False) -> MachineConfig:
    """The paper's 8-way configuration (Table 1, right column)."""
    return MachineConfig(
        width=8,
        rob_size=256,
        lsq_size=64,
        int_simple_units=6,
        int_muldiv_units=3,
        fp_simple_units=4,
        fp_muldiv_units=2,
        ports=ports,
        wide_bus=wide_bus,
        vectorize=vectorize,
    )


def make_config(width: int, ports: int, mode: str) -> MachineConfig:
    """Build a config from the paper's grid coordinates.

    Args:
        width: 4 or 8.
        ports: 1, 2 or 4 L1 data ports.
        mode: ``"noIM"`` (scalar buses), ``"IM"`` (wide buses) or ``"V"``
            (wide buses + dynamic vectorization).
    """
    if mode not in ("noIM", "IM", "V"):
        raise ValueError(f"unknown mode {mode!r}")
    base = four_way if width == 4 else eight_way
    if width not in (4, 8):
        raise ValueError("width must be 4 or 8")
    return base(ports=ports, wide_bus=mode != "noIM", vectorize=mode == "V")


def config_name(config: MachineConfig) -> str:
    """The paper's label for a configuration (e.g. ``2pIM``)."""
    if config.vectorize:
        mode = "V"
    elif config.wide_bus:
        mode = "IM"
    else:
        mode = "noIM"
    return f"{config.ports}p{mode}"


def with_mode(config: MachineConfig, mode: str) -> MachineConfig:
    """A copy of ``config`` switched to another memory mode."""
    if mode not in ("noIM", "IM", "V"):
        raise ValueError(f"unknown mode {mode!r}")
    return replace(config, wide_bus=mode != "noIM", vectorize=mode == "V")
