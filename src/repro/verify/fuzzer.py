"""Seeded random-program generation, mutation, and the persistent corpus.

The generator does not emit instructions directly: every input is a
**genome** — a small declarative description (arrays + loop specs) that
:func:`synthesize` lowers to a real :class:`~repro.isa.program.Program`
through :class:`~repro.workloads.builder.ProgramBuilder`.  Working at
genome granularity keeps three things cheap that instruction-level
fuzzing makes hard:

* **validity** — every genome synthesizes to a halting, label-correct
  program (counted loops only), so the oracle never wastes time on
  syntactically broken inputs;
* **mutation** — splicing loops between genomes, perturbing strides or
  flipping branch senses are one-field edits that preserve validity;
* **persistence** — a genome is a few dozen JSON scalars, so the corpus
  (stored through the :mod:`repro.experiments.diskcache` section
  machinery) stays tiny.

The shapes are chosen to stress exactly the mechanisms §3 of the paper
must keep sound: strided and stride-breaking loads (Table of Loads
promotion/demotion), read-modify-write stores aimed into live vector
ranges (§3.6 store coherence), data-dependent branches (control-flow
independence, §3.5), loop-carried accumulators (operand matching) and
FP/int mixes (both validation datapaths).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..experiments import diskcache
from ..isa.program import Program, WORD_SIZE
from ..workloads.builder import BuilderError, ProgramBuilder, STACK_GUARD_BASE

#: integer ALU mnemonics the generator may chain (all total semantics).
INT_OPS: Tuple[str, ...] = (
    "add", "sub", "mul", "and_", "or_", "xor", "slt", "div", "rem",
)
#: fp mnemonics for the FP accumulator lane.
FP_OPS: Tuple[str, ...] = ("fadd", "fsub", "fmul", "fdiv")
#: store shapes (see :func:`synthesize` for each one's aim).
STORE_KINDS: Tuple[str, ...] = (
    "none", "slot", "lowmem", "rmw", "ahead", "behind", "indexed", "fslot",
)
BRANCH_KINDS: Tuple[str, ...] = ("none", "nonzero", "zero")
#: strides in bytes (0 = the same word every iteration).
STRIDES: Tuple[int, ...] = (0, 8, 8, 16, 24, 32)

#: scratch words *below* the stack guard band usable as constant store
#: targets (exercises stores far outside every array without aliasing
#: the guard region).
LOW_SCRATCH_WORDS = 16
LOW_SCRATCH_BASE = 0x400
assert LOW_SCRATCH_BASE + LOW_SCRATCH_WORDS * WORD_SIZE <= STACK_GUARD_BASE


@dataclass(frozen=True)
class LoopSpec:
    """One counted loop of the genome."""

    array: int            #: index into Genome.arrays
    stride: int           #: bytes advanced per iteration (multiple of 8)
    iters: int            #: iteration count (>= 3 so strides can qualify)
    ops: Tuple[str, ...]  #: int ALU chain folded into the accumulator
    fp_ops: Tuple[str, ...]  #: fp chain (empty = integer-only loop)
    store: str            #: one of STORE_KINDS
    branch: str           #: one of BRANCH_KINDS (data-dependent on the load)
    carried: bool         #: keep the accumulator live across this loop
    wobble: bool          #: data-dependent extra pointer advance
    lowslot: int          #: scratch index for "lowmem" stores

    def to_dict(self) -> Dict:
        return {
            "array": self.array,
            "stride": self.stride,
            "iters": self.iters,
            "ops": list(self.ops),
            "fp_ops": list(self.fp_ops),
            "store": self.store,
            "branch": self.branch,
            "carried": self.carried,
            "wobble": self.wobble,
            "lowslot": self.lowslot,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "LoopSpec":
        return cls(
            array=int(payload["array"]),
            stride=int(payload["stride"]),
            iters=int(payload["iters"]),
            ops=tuple(payload["ops"]),
            fp_ops=tuple(payload["fp_ops"]),
            store=str(payload["store"]),
            branch=str(payload["branch"]),
            carried=bool(payload["carried"]),
            wobble=bool(payload["wobble"]),
            lowslot=int(payload["lowslot"]),
        )


@dataclass(frozen=True)
class Genome:
    """A complete fuzz input: data arrays plus a sequence of loops."""

    arrays: Tuple[Tuple[int, Tuple[int, ...]], ...]  #: (length, init values)
    loops: Tuple[LoopSpec, ...]

    def to_dict(self) -> Dict:
        return {
            "arrays": [[length, list(init)] for length, init in self.arrays],
            "loops": [loop.to_dict() for loop in self.loops],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Genome":
        return cls(
            arrays=tuple(
                (int(length), tuple(int(v) for v in init))
                for length, init in payload["arrays"]
            ),
            loops=tuple(LoopSpec.from_dict(d) for d in payload["loops"]),
        )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _pow2_at_least(n: int) -> int:
    return 1 << max(2, (n - 1).bit_length())


def _random_loop(rng: random.Random, n_arrays: int) -> LoopSpec:
    n_ops = rng.randint(1, 4)
    fp = rng.random() < 0.35
    store = rng.choice(STORE_KINDS)
    if store == "fslot" and not fp:
        store = "slot"
    return LoopSpec(
        array=rng.randrange(n_arrays),
        stride=rng.choice(STRIDES),
        iters=rng.randint(3, 18),
        ops=tuple(rng.choice(INT_OPS) for _ in range(n_ops)),
        fp_ops=tuple(rng.choice(FP_OPS) for _ in range(rng.randint(1, 3))) if fp else (),
        store=store,
        branch=rng.choice(BRANCH_KINDS),
        carried=rng.random() < 0.5,
        wobble=rng.random() < 0.25,
        lowslot=rng.randrange(LOW_SCRATCH_WORDS),
    )


def generate_genome(rng: random.Random) -> Genome:
    """A fresh random genome (deterministic for a given rng state)."""
    arrays = []
    for _ in range(rng.randint(1, 3)):
        # Power-of-two lengths so "indexed" stores can mask into range.
        length = _pow2_at_least(rng.randint(4, 24))
        init = tuple(rng.randint(-60, 60) for _ in range(length))
        arrays.append((length, init))
    loops = tuple(_random_loop(rng, len(arrays)) for _ in range(rng.randint(1, 4)))
    return Genome(arrays=tuple(arrays), loops=loops)


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------


def _clamped(spec: LoopSpec, n_arrays: int) -> LoopSpec:
    """Re-anchor a (possibly spliced) loop spec to this genome's arrays."""
    if spec.array >= n_arrays:
        spec = replace(spec, array=spec.array % n_arrays)
    return spec


def mutate_genome(
    rng: random.Random, genome: Genome, partner: Optional[Genome] = None
) -> Genome:
    """One mutation step; always returns a valid genome.

    Operators: splice loops from ``partner``, perturb a stride, flip a
    branch sense, change a store shape, tweak an iteration count, rewrite
    array contents (zeros flip data-dependent branch outcomes), and
    drop/duplicate a loop.  Mutants whose constant store target would
    alias the stack guard band are impossible by construction — scratch
    targets come from the LOW_SCRATCH window, which
    :meth:`ProgramBuilder.check_store_target` accepts.
    """
    loops = list(genome.loops)
    arrays = list(genome.arrays)
    ops = ["stride", "branch", "store", "iters", "ops", "data", "drop", "dup"]
    if partner is not None and partner.loops:
        ops.append("splice")
    choice = rng.choice(ops)
    idx = rng.randrange(len(loops)) if loops else 0

    if choice == "splice" and partner is not None:
        take = rng.randint(1, len(partner.loops))
        spliced = [_clamped(s, len(arrays)) for s in partner.loops[:take]]
        cut = rng.randint(0, len(loops))
        loops = loops[:cut] + spliced + loops[cut:]
        loops = loops[:5]
    elif choice == "stride":
        loops[idx] = replace(loops[idx], stride=rng.choice(STRIDES))
    elif choice == "branch":
        loops[idx] = replace(loops[idx], branch=rng.choice(BRANCH_KINDS))
    elif choice == "store":
        spec = loops[idx]
        store = rng.choice(STORE_KINDS)
        if store == "fslot" and not spec.fp_ops:
            store = "rmw"
        loops[idx] = replace(spec, store=store)
    elif choice == "iters":
        loops[idx] = replace(
            loops[idx], iters=max(3, min(20, loops[idx].iters + rng.randint(-4, 4)))
        )
    elif choice == "ops":
        spec = loops[idx]
        new_ops = list(spec.ops)
        new_ops[rng.randrange(len(new_ops))] = rng.choice(INT_OPS)
        loops[idx] = replace(spec, ops=tuple(new_ops))
    elif choice == "data":
        which = rng.randrange(len(arrays))
        length, init = arrays[which]
        values = list(init)
        for _ in range(rng.randint(1, 4)):
            values[rng.randrange(length)] = rng.choice((0, 0, rng.randint(-60, 60)))
        arrays[which] = (length, tuple(values))
    elif choice == "drop" and len(loops) > 1:
        del loops[idx]
    else:  # "dup" (and "drop" on a single-loop genome)
        loops.insert(idx, loops[idx])
        loops = loops[:5]
    return Genome(arrays=tuple(arrays), loops=tuple(loops))


# ---------------------------------------------------------------------------
# Synthesis (genome -> Program)
# ---------------------------------------------------------------------------


def synthesize(genome: Genome) -> Program:
    """Lower a genome to an executable, always-halting Program."""
    b = ProgramBuilder()
    bases = [
        b.array(length, list(init), align=4) for length, init in genome.arrays
    ]
    slot = b.array(1)
    fp_slot = b.array(1)

    acc = b.ireg()
    val = b.ireg()
    ptr = b.ireg()
    prev = b.ireg()
    facc = b.freg()
    fval = b.freg()

    b.li(acc, 1)
    b.itof(facc, acc)
    for spec in genome.loops:
        base, length = bases[spec.array], genome.arrays[spec.array][0]
        b.li(ptr, base)
        b.addi(prev, ptr, 0)
        if not spec.carried:
            b.li(acc, 1)
        with b.loop(spec.iters):
            b.ld(val, 0, ptr)
            for name in spec.ops:
                getattr(b, name)(acc, acc, val)
            if spec.fp_ops:
                b.itof(fval, val)
                for name in spec.fp_ops:
                    getattr(b, name)(facc, facc, fval)
            if spec.branch == "nonzero":
                with b.if_nonzero(val):
                    b.addi(acc, acc, 1)
            elif spec.branch == "zero":
                with b.if_zero(val):
                    b.addi(acc, acc, 3)
            _emit_store(b, spec, acc, val, facc, ptr, prev, base, length, slot, fp_slot)
            if spec.wobble:
                # Data-dependent extra advance: breaks the stride exactly
                # when the loaded value is odd (TL demotion pressure).
                with b.scratch_ireg() as parity:
                    b.andi(parity, val, 1)
                    with b.if_nonzero(parity):
                        b.addi(ptr, ptr, 8)
            b.addi(prev, ptr, 0)
            if spec.stride:
                b.addi(ptr, ptr, spec.stride)
    # Make both accumulators architecturally visible so a corrupted value
    # cannot die in a register the diff never reads.
    b.st(acc, slot, 0)
    b.fst(facc, fp_slot, 0)
    b.halt()
    b.release(acc, val, ptr, prev, facc, fval)
    return b.build()


def _emit_store(b, spec, acc, val, facc, ptr, prev, base, length, slot, fp_slot):
    """One store of the shape ``spec.store`` (see module docstring)."""
    if spec.store == "none":
        return
    if spec.store == "slot":
        b.st(acc, slot, 0)
    elif spec.store == "fslot":
        b.fst(facc, fp_slot, 0)
    elif spec.store == "lowmem":
        target = LOW_SCRATCH_BASE + spec.lowslot * WORD_SIZE
        b.st(acc, b.check_store_target(target), 0)
    elif spec.store == "rmw":
        b.st(acc, 0, ptr)  # overwrite the word just loaded
    elif spec.store == "ahead":
        b.st(acc, spec.stride or 8, ptr)  # clobber a not-yet-validated element
    elif spec.store == "behind":
        b.st(acc, 0, prev)  # rewrite the previously validated element
    elif spec.store == "indexed":
        # Data-dependent address inside the (power-of-two) array.
        with b.scratch_ireg() as index:
            b.andi(index, val, length - 1)
            b.slli(index, index, 3)
            with b.scratch_ireg() as addr:
                b.li(addr, base)
                b.add(addr, addr, index)
                b.st(acc, 0, addr)
    else:  # pragma: no cover - genome validation keeps kinds in range
        raise BuilderError(f"unknown store kind {spec.store!r}")


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

CORPUS_FORMAT = 1


class Corpus:
    """The persistent set of behaviourally interesting genomes.

    Backed by the ``corpus/`` section of the experiment disk cache
    (:func:`repro.experiments.diskcache.corpus_dir`); an in-memory union
    of every entry's coverage signature decides membership: an input
    earns a slot iff its signature contains a ``(kind, bucket)`` pair no
    stored input has shown before (see
    :func:`repro.observe.events.coverage_signature`).
    """

    def __init__(self) -> None:
        self.entries: Dict[str, Genome] = {}
        self.seen: set = set()
        self.added = 0
        for key in diskcache.corpus_keys():
            payload = diskcache.load_corpus_entry(key)
            if payload is None or payload.get("format") != CORPUS_FORMAT:
                continue
            try:
                genome = Genome.from_dict(payload["genome"])
            except (KeyError, TypeError, ValueError):
                continue
            self.entries[key] = genome
            self.seen.update(
                (str(kind), int(bucket)) for kind, bucket in payload.get("signature", ())
            )

    def __len__(self) -> int:
        return len(self.entries)

    def consider(self, genome: Genome, signature: frozenset) -> bool:
        """Keep ``genome`` iff it exercised new behaviour; returns kept."""
        fresh = signature - self.seen
        if not fresh:
            return False
        self.seen |= signature
        payload = {
            "format": CORPUS_FORMAT,
            "genome": genome.to_dict(),
            "signature": sorted([kind, bucket] for kind, bucket in signature),
        }
        key = diskcache.corpus_key(payload["genome"])
        self.entries[key] = genome
        self.added += 1
        diskcache.store_corpus_entry(key, payload)
        return True

    def sample(self, rng: random.Random) -> Optional[Genome]:
        """A uniformly random stored genome (None when empty)."""
        if not self.entries:
            return None
        key = rng.choice(sorted(self.entries))
        return self.entries[key]

    def info(self) -> Dict:
        """Corpus accounting for reports and the CLI."""
        kinds: Dict[str, int] = {}
        for kind, _bucket in self.seen:
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "root": str(diskcache.corpus_dir()),
            "entries": len(self.entries),
            "added_this_run": self.added,
            "coverage_pairs": len(self.seen),
            "coverage_kinds": dict(sorted(kinds.items())),
        }
