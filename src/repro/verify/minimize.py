"""Divergence minimization and self-contained reproducer artifacts.

When the oracle finds a diverging program the raw input is rarely the
story — a 120-instruction fuzz program usually diverges because of a
4-instruction interaction.  :func:`minimize_program` delta-debugs the
program down while a caller-supplied predicate keeps confirming the
divergence, in three alternating phases:

1. **NOP masking** (ddmin over instruction indices) — replacing an
   instruction with ``NOP`` preserves every label/branch target, so
   arbitrary subsets can be knocked out safely;
2. **compaction** — the surviving NOPs are deleted and control-flow
   targets remapped, shrinking the static program (a branch to a deleted
   instruction retargets to the next survivor);
3. **data shrinking** — initial data words the divergence does not need
   are dropped (absent words read as zero).

Each phase must *re-confirm* the divergence through the predicate, so
the result is always a true reproducer, never a guess.

The reproducer ships as a ``.repro.json`` artifact: the full program
(instructions + data + entry), the oracle configuration, the recorded
oracle report, and the provenance (campaign seed / genome).  The
artifact is self-contained — ``python -m repro fuzz replay`` re-executes
it with no corpus, no RNG and no generator involved.
"""

from __future__ import annotations

import json
import pathlib
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.program import Program, ProgramError
from ..schemas import SCHEMA_FUZZ_REPLAY, SCHEMA_FUZZ_REPRO, envelope, error_dict

#: artifact schema identifier (bump on layout change).
ARTIFACT_SCHEMA = SCHEMA_FUZZ_REPRO


# ---------------------------------------------------------------------------
# Program serialization (an artifact carries the program itself).
# ---------------------------------------------------------------------------


def program_to_dict(program: Program) -> Dict:
    """A lossless JSON rendering of a finalized program.

    Labels are already resolved into instruction-index targets, so only
    targets are kept; a round-tripped program is label-free but executes
    identically.
    """
    return {
        "instructions": [
            [ins.op.name, ins.rd, ins.rs1, ins.rs2, ins.imm, ins.target]
            for ins in program.instructions
        ],
        "data": {str(addr): value for addr, value in sorted(program.data.items())},
        "entry": program.entry,
    }


def program_from_dict(payload: Dict) -> Program:
    """Rebuild a program serialized by :func:`program_to_dict`."""
    instructions = [
        Instruction(
            Opcode[op], rd=int(rd), rs1=int(rs1), rs2=int(rs2),
            imm=int(imm), target=int(target),
        )
        for op, rd, rs1, rs2, imm, target in payload["instructions"]
    ]
    data = {int(addr): value for addr, value in payload["data"].items()}
    return Program(instructions, data=data, entry=int(payload.get("entry", 0)))


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def _mask(program: Program, indices: List[int]) -> Program:
    """``program`` with the given instruction indices replaced by NOPs."""
    drop = set(indices)
    instructions = [
        Instruction(Opcode.NOP) if i in drop else ins
        for i, ins in enumerate(program.instructions)
    ]
    return Program(
        instructions, labels=dict(program.labels), data=dict(program.data),
        entry=program.entry,
    )


def _compact(program: Program) -> Optional[Program]:
    """Delete NOPs, remapping control targets; None when not possible."""
    keep = [
        i for i, ins in enumerate(program.instructions) if ins.op is not Opcode.NOP
    ]
    if not keep or len(keep) == len(program.instructions):
        return None
    instructions = []
    for i in keep:
        ins = program.instructions[i]
        target = ins.target
        if ins.is_control and ins.op is not Opcode.JR:
            # A branch to a deleted instruction falls through to the next
            # survivor — the same instruction stream the masked program
            # executed.
            target = bisect_left(keep, ins.target)
            if target >= len(keep):
                return None  # would branch past the end: not compactable
        instructions.append(
            Instruction(
                ins.op, rd=ins.rd, rs1=ins.rs1, rs2=ins.rs2, imm=ins.imm,
                target=target,
            )
        )
    entry = min(bisect_left(keep, program.entry), len(keep) - 1)
    try:
        return Program(instructions, data=dict(program.data), entry=entry)
    except ProgramError:
        return None


def instruction_count(program: Program) -> int:
    """Static size excluding NOP filler (what 'N-instruction repro' means)."""
    return sum(1 for ins in program.instructions if ins.op is not Opcode.NOP)


def minimize_program(
    program: Program,
    diverges: Callable[[Program], bool],
    max_tests: int = 600,
) -> Tuple[Program, int]:
    """Shrink ``program`` while ``diverges`` keeps returning True.

    Returns ``(minimized, tests_used)``.  ``diverges`` is treated as a
    black box; a candidate on which it raises counts as non-diverging.
    ``max_tests`` bounds total predicate invocations — minimization is
    best-effort under the budget, and the returned program is always one
    the predicate confirmed.
    """
    budget = [max_tests]

    def check(candidate: Optional[Program]) -> bool:
        if candidate is None or budget[0] <= 0:
            return False
        budget[0] -= 1
        try:
            return bool(diverges(candidate))
        except Exception:
            return False

    if not check(program):
        raise ValueError("minimize_program: input does not satisfy the predicate")

    current = program
    improved = True
    while improved and budget[0] > 0:
        improved = False
        # Phase 1: ddmin by NOP masking.
        active = [
            i for i, ins in enumerate(current.instructions)
            if ins.op is not Opcode.NOP
        ]
        chunk = max(1, len(active) // 2)
        while chunk >= 1 and budget[0] > 0:
            i = 0
            while i < len(active) and budget[0] > 0:
                subset = active[i:i + chunk]
                candidate = _mask(current, subset)
                if check(candidate):
                    current = candidate
                    removed = set(subset)
                    active = [a for a in active if a not in removed]
                    improved = True
                else:
                    i += chunk
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
        # Phase 2: compact the NOPs away (same executed stream, smaller
        # static program — and re-confirmed, since fetch timing shifts).
        compacted = _compact(current)
        if compacted is not None and check(compacted):
            current = compacted
            improved = True
        # Phase 3: shrink the initial data image.
        addresses = sorted(current.data)
        for addr in addresses:
            if budget[0] <= 0:
                break
            pruned_data = dict(current.data)
            del pruned_data[addr]
            candidate = Program(
                list(current.instructions), labels=dict(current.labels),
                data=pruned_data, entry=current.entry,
            )
            if check(candidate):
                current = candidate
                improved = True
    return current, max_tests - budget[0]


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def save_artifact(
    path,
    program: Program,
    oracle_config,
    report,
    provenance: Optional[Dict] = None,
) -> pathlib.Path:
    """Write a self-contained ``.repro.json`` reproducer; returns the path."""
    path = pathlib.Path(path)
    payload = envelope(
        ARTIFACT_SCHEMA,
        program=program_to_dict(program),
        oracle=oracle_config.to_dict(),
        report=report.to_dict(),
        provenance=provenance or {},
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def load_artifact(path) -> Dict:
    """Parse and schema-check a ``.repro.json`` artifact."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(
            f"not a {ARTIFACT_SCHEMA} artifact: {payload.get('schema')!r}"
        )
    return payload


def replay_artifact(path) -> Dict:
    """Re-execute an artifact's program through the oracle.

    Returns a versioned payload with the recorded and replayed reports
    and ``matches`` — True when the replayed oracle report is
    bit-for-bit the recorded one (same verdict, same divergences, same
    coverage counts and cycle counts).  A replay that no longer diverges
    usually means the bug was since fixed; a replay that diverges
    *differently* means the reproducer is sensitive to a simulator
    change and should be re-minimized.
    """
    from .oracle import OracleConfig, crash_report, run_oracle  # local: avoid cycle

    payload = load_artifact(path)
    program = program_from_dict(payload["program"])
    config = OracleConfig.from_dict(payload["oracle"])
    try:
        replayed = run_oracle(program, config)
    except Exception as exc:
        # Same containment as the campaign: a reproducer whose program
        # still crashes the oracle replays as a `crash` divergence (and
        # matches its recorded report bit-for-bit) instead of taking the
        # CLI down with a traceback.
        replayed = crash_report(exc)
    replayed_dict = replayed.to_dict()
    matches = replayed_dict == payload["report"]
    return envelope(
        SCHEMA_FUZZ_REPLAY,
        error=None if matches else error_dict(
            "fuzz.replay.mismatch",
            "replayed oracle report differs from the recorded one",
            retriable=False,
        ),
        artifact=str(path),
        matches=matches,
        recorded=payload["report"],
        replayed=replayed_dict,
    )
