"""The three-way differential oracle.

Every fuzz input runs through three executors that must agree:

1. the **functional interpreter** — the reference architectural
   semantics (registers, memory, halting);
2. the **scalar machine** — the timing model with vectorization off
   (``noIM`` by default), replaying the functional trace;
3. the **V-mode machine** — wide buses + speculative dynamic
   vectorization with ``check_invariants=True``, so any element a
   validation would commit with the wrong value raises
   :class:`~repro.core.engine.MisspeculationError` instead of silently
   corrupting state.

What "agree" means (§3's invisibility contract):

* both machines commit **exactly the trace prefix** the interpreter
  produced — same dynamic instruction count, same committed store count
  (the commit stream of a trace-driven machine *is* the trace, so a
  count mismatch is a prefix mismatch);
* both machines' commit-time memory images equal the interpreter's
  final memory (registers are checked element-by-element inside the
  V machine by the invariant assertions — that is the register half of
  the architectural-state diff);
* neither machine wedges (cycle-safety-valve trip).

The V-mode run also carries a :class:`~repro.observe.TraceBus` whose
per-kind event counts become the fuzzer's coverage signal — an input
that makes the mechanism do something new (first coherence squash, an
order of magnitude more validation failures, ...) is worth keeping even
though it agreed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.engine import MisspeculationError
from ..functional.interpreter import Interpreter
from ..functional.memory import MemoryImage
from ..functional.trace import Trace
from ..observe import Observer, TraceBus
from ..pipeline.config import make_config
from ..pipeline.machine import Machine
from ..schemas import SCHEMA_FUZZ_ORACLE, envelope
from . import faults

#: oracle verdicts.
AGREE = "agree"
DIVERGE = "diverge"
INVALID = "invalid"  # the input, not the machine, is at fault (no halt...)


@dataclass(frozen=True)
class OracleConfig:
    """Which machines the oracle compares, and its execution bounds."""

    width: int = 4
    ports: int = 1
    scalar_mode: str = "noIM"
    max_instructions: int = 50_000

    def to_dict(self) -> Dict:
        return {
            "width": self.width,
            "ports": self.ports,
            "scalar_mode": self.scalar_mode,
            "max_instructions": self.max_instructions,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "OracleConfig":
        return cls(
            width=int(payload["width"]),
            ports=int(payload["ports"]),
            scalar_mode=str(payload["scalar_mode"]),
            max_instructions=int(payload["max_instructions"]),
        )


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement."""

    stage: str  #: "functional" | "scalar" | "vector"
    kind: str   #: "nohalt" | "error" | "wedge" | "invariant" | "memory" | "commit" | "stores"
    detail: str

    def to_dict(self) -> Dict:
        return {"stage": self.stage, "kind": self.kind, "detail": self.detail}


@dataclass
class OracleReport:
    """The verdict for one program plus everything a triager needs."""

    verdict: str
    divergences: List[Divergence] = field(default_factory=list)
    coverage: Dict[str, int] = field(default_factory=dict)
    dynamic_instructions: int = 0
    cycles: Dict[str, int] = field(default_factory=dict)

    @property
    def diverged(self) -> bool:
        return self.verdict == DIVERGE

    def to_dict(self) -> Dict:
        # The verdict (even DIVERGE) is the *result* of a successful oracle
        # run, so the envelope is always ok — divergence lives in the payload.
        return envelope(
            SCHEMA_FUZZ_ORACLE,
            verdict=self.verdict,
            divergences=[d.to_dict() for d in self.divergences],
            coverage=dict(sorted(self.coverage.items())),
            dynamic_instructions=self.dynamic_instructions,
            cycles=dict(sorted(self.cycles.items())),
        )


def diff_memory(reference: MemoryImage, got: MemoryImage, limit: int = 4) -> str:
    """A short human-readable diff of two memory images ('' when equal)."""
    ref = {a: v for a, v in reference.items() if v != 0}
    other = {a: v for a, v in got.items() if v != 0}
    lines = []
    for addr in sorted(set(ref) | set(other)):
        a, b = ref.get(addr, 0), other.get(addr, 0)
        if a != b:
            lines.append(f"[{addr:#x}] expected {a!r} got {b!r}")
        if len(lines) > limit:
            lines[-1] = "..."
            break
    return "; ".join(lines)


def _check_machine(
    stage: str,
    config,
    trace: Trace,
    report: OracleReport,
    observer: Optional[Observer] = None,
) -> None:
    """Run one timing machine over ``trace`` and diff it against the
    interpreter's architectural end state, appending any divergences."""
    machine = Machine(config, trace, observer=observer)
    try:
        stats = machine.run()
    except MisspeculationError as exc:
        report.divergences.append(Divergence(stage, "invariant", str(exc)))
        return
    except RuntimeError as exc:  # the run loop's safety valve
        report.divergences.append(Divergence(stage, "wedge", str(exc)))
        return
    report.cycles[stage] = stats.cycles
    total = len(trace.entries)
    if stats.committed != total:
        report.divergences.append(
            Divergence(
                stage,
                "commit",
                f"committed {stats.committed} of {total} trace entries",
            )
        )
    expected_stores = sum(1 for e in trace.entries if e.op.name in ("ST", "FST"))
    if stats.committed_stores != expected_stores:
        report.divergences.append(
            Divergence(
                stage,
                "stores",
                f"committed {stats.committed_stores} stores, trace has "
                f"{expected_stores}",
            )
        )
    if machine.commit_memory != trace.final_memory:
        report.divergences.append(
            Divergence(
                stage,
                "memory",
                diff_memory(trace.final_memory, machine.commit_memory),
            )
        )


def crash_description(exc: BaseException) -> str:
    """Deterministic one-line rendering of an oracle-crashing exception.

    Shared by campaign containment and artifact replay so a crash
    reproducer's recorded and replayed reports compare bit-for-bit.
    """
    return f"{type(exc).__name__}: {exc}"


def crash_report(exc: BaseException) -> OracleReport:
    """The report for an exception that escaped the oracle machinery.

    Anything other than the handled verdicts (a simulator bug tripping
    an unexpected error path, an injected fault) is itself a divergence
    from the contract — verdict ``diverge``, kind ``crash`` — so the
    campaign records it, saves the offending program as a reproducer,
    and keeps running instead of aborting with a traceback.
    """
    return OracleReport(
        verdict=DIVERGE,
        divergences=[Divergence("oracle", "crash", crash_description(exc))],
    )


def run_oracle(program, config: Optional[OracleConfig] = None) -> OracleReport:
    """Differentially execute ``program``; see the module docstring."""
    config = config or OracleConfig()
    faults.fire("oracle.run", instructions=len(program.instructions))
    report = OracleReport(verdict=AGREE)

    # -- 1: reference semantics -------------------------------------------
    try:
        trace = Interpreter(
            program, max_instructions=config.max_instructions
        ).run()
    except Exception as exc:  # ExecutionError, MisalignedAccess, ...
        report.verdict = INVALID
        report.divergences.append(Divergence("functional", "error", repr(exc)))
        return report
    report.dynamic_instructions = len(trace.entries)
    if not trace.halted:
        # A generator bug (runaway program), not a machine bug: report it
        # distinctly so the campaign can skip instead of minimizing.
        report.verdict = INVALID
        report.divergences.append(
            Divergence(
                "functional",
                "nohalt",
                f"no HALT within {config.max_instructions} instructions",
            )
        )
        return report

    # -- 2: scalar machine -------------------------------------------------
    scalar_config = make_config(config.width, config.ports, config.scalar_mode)
    _check_machine("scalar", scalar_config, trace, report)

    # -- 3: V-mode machine, invariants armed, events counted ---------------
    v_config = make_config(config.width, config.ports, "V")
    v_config.check_invariants = True
    observer = Observer(bus=TraceBus(capacity=16))
    _check_machine("vector", v_config, trace, report, observer=observer)
    report.coverage = dict(observer.bus.counts)

    if report.divergences:
        report.verdict = DIVERGE
    return report
