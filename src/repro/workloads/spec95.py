"""Synthetic SPEC95-like benchmark programs.

The paper evaluates the complete SpecInt95 suite plus four SpecFP95
programs compiled for Alpha.  Neither the SPEC sources/inputs nor an Alpha
toolchain are redistributable here, so each benchmark is replaced by a
synthetic program — built from the kernels of
:mod:`repro.workloads.kernels` — whose *mechanism-visible* character
matches what the paper reports for that benchmark:

* stride distribution of its loads (Fig 1),
* rough vectorizable fraction (Fig 3),
* branch predictability (drives Fig 10's misprediction population),
* int/fp instruction mix.

The mapping is documented per benchmark in each builder's docstring and in
DESIGN.md §2.  Absolute IPC will differ from the paper (different ISA,
different inputs); the *relative* behaviour of the three machine modes is
what these programs are for.

All builders are deterministic for a given ``seed``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Dict

from ..functional.interpreter import run_program
from ..functional.trace import Trace
from ..isa.program import Program
from .builder import ProgramBuilder
from .suite import ALL_BENCHMARKS, SPEC_FP, SPEC_INT, is_fp_benchmark
from . import kernels

__all__ = [
    "ALL_BENCHMARKS",
    "DEFAULT_SCALE",
    "SPEC_FP",
    "SPEC_INT",
    "build",
    "cached_trace",
    "is_fp_benchmark",
]

#: Default approximate dynamic instruction count for one benchmark run.
DEFAULT_SCALE = 30_000


def _reps(scale: int, pass_cost: int) -> int:
    """Outer-loop repetitions to reach roughly ``scale`` dynamic instructions."""
    return max(1, round(scale / pass_cost))


# ---------------------------------------------------------------------------
# SpecInt95
# ---------------------------------------------------------------------------


def build_go(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``go``: game-tree search — hard branches, board-table scans, pointers.

    Regime: many poorly-predictable data-dependent branches, irregular
    table reads, modest stride-0 locals; low vectorizable fraction.
    """
    rng = random.Random(seed)
    b = ProgramBuilder()
    with b.loop(_reps(scale, 4700)):
        kernels.branchy_threshold(b, 192, rng=rng, taken_prob=0.45)
        kernels.table_lookup(b, 1024, 128, rng=rng)
        kernels.pointer_chase(b, 160, rng=rng, shuffled=True)
        kernels.local_accumulate(b, 96, n_locals=6)
    b.halt()
    return b.build()


def build_m88ksim(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``m88ksim``: CPU simulator — predictable dispatch loop, locals.

    Regime: highly-predictable branches, dominant stride-0 state traffic
    (simulated register file), some unit-stride table scans.
    """
    rng = random.Random(seed)
    b = ProgramBuilder()
    with b.loop(_reps(scale, 4600)):
        kernels.local_accumulate(b, 150, n_locals=6)
        kernels.strided_sum(b, 512, 1, unroll=1)
        kernels.branchy_threshold(b, 96, rng=rng, taken_prob=0.92)
    b.halt()
    return b.build()


def build_gcc(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``gcc``: compiler — pointer-rich IR walks, hash lookups, branches."""
    rng = random.Random(seed)
    b = ProgramBuilder()
    with b.loop(_reps(scale, 5100)):
        kernels.pointer_chase(b, 192, rng=rng, shuffled=True)
        kernels.table_lookup(b, 1024, 160, rng=rng)
        kernels.branchy_threshold(b, 128, rng=rng, taken_prob=0.7)
        kernels.local_accumulate(b, 144)
    b.halt()
    return b.build()


def build_compress(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``compress``: LZW — hash-table read-modify-write, coin-flip branches.

    Regime: the paper singles compress out for *useless speculative
    accesses* (Fig 13): its table updates invalidate vector loads often.
    ``hist_update`` reproduces exactly that store-into-vector-range
    behaviour.
    """
    rng = random.Random(seed)
    b = ProgramBuilder()
    with b.loop(_reps(scale, 4400)):
        kernels.branchy_threshold(b, 192, rng=rng, taken_prob=0.5)
        kernels.hist_update(b, 1024, 192, rng=rng)
        kernels.local_accumulate(b, 96)
    b.halt()
    return b.build()


def build_li(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``li``: lisp interpreter — cons-cell chasing dominates everything."""
    rng = random.Random(seed)
    b = ProgramBuilder()
    with b.loop(_reps(scale, 4700)):
        kernels.pointer_chase(b, 256, rng=rng, shuffled=True)
        kernels.pointer_chase(b, 128, rng=rng, shuffled=False)
        kernels.local_accumulate(b, 160)
        kernels.branchy_threshold(b, 96, rng=rng, taken_prob=0.8)
    b.halt()
    return b.build()


def build_ijpeg(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``ijpeg``: image codec — blocked unit-stride integer sweeps, copies.

    Regime: the most vectorizable SpecInt member (Fig 3): long constant
    stride-1/2 integer streams, predictable loop branches.
    """
    b = ProgramBuilder()
    with b.loop(_reps(scale, 5200)):
        kernels.multi_stream_sum(b, 128, 3)
        kernels.strided_sum(b, 512, 1, unroll=2)
        kernels.copy_kernel(b, 256, unroll=2)
        kernels.local_accumulate(b, 48)
    b.halt()
    return b.build()


def build_perl(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``perl``: interpreter — dispatch tables, string-ish scans, pointers."""
    rng = random.Random(seed)
    b = ProgramBuilder()
    with b.loop(_reps(scale, 4900)):
        kernels.table_lookup(b, 1024, 192, rng=rng)
        kernels.pointer_chase(b, 128, rng=rng, shuffled=True)
        kernels.branchy_threshold(b, 96, rng=rng, taken_prob=0.62)
        kernels.local_accumulate(b, 128)
        kernels.copy_kernel(b, 128)
    b.halt()
    return b.build()


def build_vortex(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``vortex``: OO database — record copies, index lookups, locals."""
    rng = random.Random(seed)
    b = ProgramBuilder()
    with b.loop(_reps(scale, 4600)):
        kernels.copy_kernel(b, 384, unroll=2)
        kernels.table_lookup(b, 1024, 160, rng=rng)
        kernels.local_accumulate(b, 96, n_locals=6)
        kernels.branchy_threshold(b, 64, rng=rng, taken_prob=0.85)
    b.halt()
    return b.build()


# ---------------------------------------------------------------------------
# SpecFP95
# ---------------------------------------------------------------------------


def build_swim(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``swim``: shallow-water PDE — pure stride-1 fp stencils and streams."""
    b = ProgramBuilder()
    with b.loop(_reps(scale, 6900)):
        kernels.stencil3(b, 512)
        kernels.daxpy(b, 384, unroll=1)
    b.halt()
    return b.build()


def build_applu(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``applu``: LU SSOR solver — blocked fp loops, some unrolled strides."""
    b = ProgramBuilder()
    with b.loop(_reps(scale, 5200)):
        kernels.matvec(b, 16, 16)
        kernels.unrolled_fp_sweep(b, 512, 2)
        kernels.stencil3(b, 256)
    b.halt()
    return b.build()


def build_turb3d(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``turb3d``: turbulence FFTs — unrolled strided fp accesses (2/4/8)."""
    b = ProgramBuilder()
    with b.loop(_reps(scale, 4900)):
        kernels.unrolled_fp_sweep(b, 512, 4)
        kernels.unrolled_fp_sweep(b, 512, 8)
        kernels.daxpy(b, 256)
        kernels.matvec(b, 8, 24)
    b.halt()
    return b.build()


def build_fpppp(scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """``fpppp``: quantum chemistry — huge fp basic blocks, spill traffic.

    Regime: the paper attributes SpecFP stride-0 accesses mainly to spill
    code; ``fp_chain_spill`` is that behaviour distilled.
    """
    b = ProgramBuilder()
    with b.loop(_reps(scale, 590)):
        kernels.fp_chain_spill(b, 96)
        kernels.fp_chain_spill(b, 64)
        kernels.daxpy(b, 32, unroll=1)
    b.halt()
    return b.build()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BUILDERS: Dict[str, Callable[[int, int], Program]] = {
    "go": build_go,
    "m88ksim": build_m88ksim,
    "gcc": build_gcc,
    "compress": build_compress,
    "li": build_li,
    "ijpeg": build_ijpeg,
    "perl": build_perl,
    "vortex": build_vortex,
    "swim": build_swim,
    "applu": build_applu,
    "turb3d": build_turb3d,
    "fpppp": build_fpppp,
}


def build(name: str, scale: int = DEFAULT_SCALE, seed: int = 0) -> Program:
    """Build benchmark ``name`` (one of :data:`ALL_BENCHMARKS`)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; known: {ALL_BENCHMARKS}") from None
    return builder(scale, seed)


@lru_cache(maxsize=64)
def cached_trace(name: str, scale: int = DEFAULT_SCALE, seed: int = 0) -> Trace:
    """Build + functionally execute ``name``, memoized in-process and on disk.

    The experiment harness replays one functional trace through many timing
    configurations (9 machine configs x 2 widths in Fig 11), so caching the
    architectural execution cuts experiment time roughly 10x.  The disk
    layer (:mod:`repro.experiments.diskcache`) extends that across
    processes: a cached trace round-trips bit-identically (including
    per-PC control-flow direction — traceio's binary codec), so warm runs skip
    program construction and functional execution entirely.  Callers must
    treat the returned trace as immutable.
    """
    # Imported here: workloads is a lower layer than experiments, and the
    # cache module pulls in pipeline config for its keying.
    from ..experiments import diskcache

    key = diskcache.trace_key(name, scale, seed)
    trace = diskcache.load_cached_trace(key)
    if trace is None:
        program = build(name, scale, seed)
        trace = run_program(program, max_instructions=scale)
        diskcache.store_trace(key, trace)
        diskcache.store_soa(diskcache.soa_key(name, scale, seed), trace.soa())
        return trace
    # Warm trace: attach the persisted predecode too, so timing runs skip
    # the per-entry SoA build (a cold/corrupt soa entry is rebuilt and
    # rewritten here — the predecode is needed by every machine anyway).
    soa_key = diskcache.soa_key(name, scale, seed)
    soa = diskcache.load_soa(soa_key)
    if soa is not None:
        trace._soa = soa
    else:
        diskcache.store_soa(soa_key, trace.soa())
    return trace
