"""The fuzz campaign driver: generate → oracle → corpus / minimize.

One campaign is a bounded loop (``max_programs`` and/or
``budget_seconds``) of:

1. pick an input — a fresh random genome, or a mutation of one or two
   corpus entries once the corpus is non-empty;
2. run the three-way oracle (:mod:`repro.verify.oracle`);
3. on agreement, offer the input to the corpus (kept iff its coverage
   signature shows new behaviour);
4. on divergence, delta-debug the program to a minimal reproducer and
   write a self-contained ``.repro.json`` artifact
   (:mod:`repro.verify.minimize`).

The campaign is deterministic for a given ``(seed, corpus contents)``
pair; with the corpus disabled it is deterministic for the seed alone —
which is what pins the acceptance run
(``python -m repro fuzz run --max-programs 200 --seed 7``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..observe.events import coverage_signature
from ..schemas import SCHEMA_FUZZ, envelope, error_dict
from . import faults
from .fuzzer import Corpus, generate_genome, mutate_genome, synthesize
from .minimize import instruction_count, minimize_program, save_artifact
from .oracle import DIVERGE, AGREE, OracleConfig, crash_report, run_oracle

#: fraction of inputs taken from corpus mutation once entries exist.
MUTATION_RATE = 0.5


@dataclass
class DivergenceRecord:
    """One diverging input, after minimization."""

    index: int                 #: campaign iteration that found it
    kinds: List[str]           #: divergence kinds (e.g. ["invariant"])
    original_instructions: int
    minimized_instructions: int
    minimize_tests: int
    artifact: Optional[str]    #: path of the written .repro.json

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "kinds": self.kinds,
            "original_instructions": self.original_instructions,
            "minimized_instructions": self.minimized_instructions,
            "minimize_tests": self.minimize_tests,
            "artifact": self.artifact,
        }


@dataclass
class CampaignReport:
    """Everything one ``fuzz run`` did, JSON-stable via :meth:`to_dict`."""

    seed: int
    oracle: OracleConfig
    programs: int = 0
    agreed: int = 0
    invalid: int = 0
    mutated: int = 0
    crashes: int = 0
    dynamic_instructions: int = 0
    divergences: List[DivergenceRecord] = field(default_factory=list)
    corpus: Optional[Dict] = None
    elapsed_seconds: float = 0.0
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        """True when no divergence was found (the CI gate)."""
        return not self.divergences

    def to_dict(self) -> Dict:
        error = None
        if not self.ok:
            error = error_dict(
                "fuzz.divergence",
                f"{len(self.divergences)} divergence(s) found",
                retriable=False,
            )
        return envelope(
            SCHEMA_FUZZ,
            error=error,
            seed=self.seed,
            oracle=self.oracle.to_dict(),
            programs=self.programs,
            agreed=self.agreed,
            invalid=self.invalid,
            mutated=self.mutated,
            crashes=self.crashes,
            dynamic_instructions=self.dynamic_instructions,
            divergences=[d.to_dict() for d in self.divergences],
            corpus=self.corpus,
            elapsed_seconds=round(self.elapsed_seconds, 3),
            budget_exhausted=self.budget_exhausted,
        )

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.programs} programs "
            f"({self.mutated} mutated, {self.invalid} invalid"
            + (f", {self.crashes} crashed" if self.crashes else "")
            + "), "
            f"{self.dynamic_instructions} dynamic instructions, "
            f"{self.elapsed_seconds:.1f}s"
            + (" [budget exhausted]" if self.budget_exhausted else "")
        ]
        if self.corpus is not None:
            lines.append(
                f"corpus: {self.corpus['entries']} entries "
                f"(+{self.corpus['added_this_run']} this run), "
                f"{self.corpus['coverage_pairs']} coverage pairs"
            )
        if self.divergences:
            for record in self.divergences:
                lines.append(
                    f"DIVERGENCE at program {record.index}: "
                    f"{','.join(record.kinds)} — minimized "
                    f"{record.original_instructions} -> "
                    f"{record.minimized_instructions} instructions"
                    + (f" ({record.artifact})" if record.artifact else "")
                )
        else:
            lines.append("no divergences")
        return "\n".join(lines)


def run_campaign(
    seed: int = 0,
    max_programs: int = 100,
    budget_seconds: Optional[float] = None,
    oracle: Optional[OracleConfig] = None,
    artifact_dir: str = "fuzz-artifacts",
    use_corpus: bool = True,
    minimize: bool = True,
    minimize_tests: int = 600,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run one fuzz campaign; see the module docstring for the loop."""
    oracle = oracle or OracleConfig()
    rng = random.Random(seed)
    corpus = Corpus() if use_corpus else None
    report = CampaignReport(seed=seed, oracle=oracle)
    started = time.monotonic()
    deadline = started + budget_seconds if budget_seconds else None

    for index in range(max_programs):
        if deadline is not None and time.monotonic() >= deadline:
            report.budget_exhausted = True
            break
        genome = None
        if corpus is not None and len(corpus) and rng.random() < MUTATION_RATE:
            base = corpus.sample(rng)
            partner = corpus.sample(rng) if rng.random() < 0.5 else None
            genome = mutate_genome(rng, base, partner=partner)
            report.mutated += 1
        if genome is None:
            genome = generate_genome(rng)
        program = synthesize(genome)
        try:
            faults.fire("fuzz.program", index=index)
            result = run_oracle(program, oracle)
        except Exception as exc:
            # Crash containment: an exception escaping the oracle is the
            # most valuable input of the whole campaign — the machinery
            # itself fell over on it.  Record it as a `crash` divergence,
            # save the offending program verbatim as a reproducer (no
            # minimization: re-running an oracle that just crashed is not
            # a safe predicate), and keep fuzzing.
            report.programs += 1
            report.crashes += 1
            crashed = crash_report(exc)
            if log:
                log(
                    f"CRASH at program {index}: "
                    f"{crashed.divergences[0].detail} — saving reproducer"
                )
            artifact_path = None
            if artifact_dir:
                artifact_path = str(
                    save_artifact(
                        f"{artifact_dir}/seed{seed}-p{index}-crash.repro.json",
                        program,
                        oracle,
                        crashed,
                        provenance={
                            "campaign_seed": seed,
                            "program_index": index,
                            "genome": genome.to_dict(),
                        },
                    )
                )
            size = instruction_count(program)
            report.divergences.append(
                DivergenceRecord(
                    index=index,
                    kinds=["crash"],
                    original_instructions=size,
                    minimized_instructions=size,
                    minimize_tests=0,
                    artifact=artifact_path,
                )
            )
            continue
        report.programs += 1
        report.dynamic_instructions += result.dynamic_instructions

        if result.verdict == AGREE:
            report.agreed += 1
            if corpus is not None:
                corpus.consider(genome, coverage_signature(result.coverage))
            continue
        if result.verdict != DIVERGE:
            report.invalid += 1
            continue

        # A real divergence: minimize and persist a reproducer.
        kinds = sorted({d.kind for d in result.divergences})
        if log:
            log(f"divergence at program {index}: {','.join(kinds)} — minimizing")
        original_size = instruction_count(program)
        minimized, tests = program, 0
        if minimize:
            def still_diverges(candidate) -> bool:
                return run_oracle(candidate, oracle).diverged

            minimized, tests = minimize_program(
                program, still_diverges, max_tests=minimize_tests
            )
        final_report = run_oracle(minimized, oracle)
        artifact_path = None
        if artifact_dir:
            key = f"seed{seed}-p{index}"
            artifact_path = str(
                save_artifact(
                    f"{artifact_dir}/{key}.repro.json",
                    minimized,
                    oracle,
                    final_report,
                    provenance={
                        "campaign_seed": seed,
                        "program_index": index,
                        "genome": genome.to_dict(),
                    },
                )
            )
        report.divergences.append(
            DivergenceRecord(
                index=index,
                kinds=kinds,
                original_instructions=original_size,
                minimized_instructions=instruction_count(minimized),
                minimize_tests=tests,
                artifact=artifact_path,
            )
        )

    report.elapsed_seconds = time.monotonic() - started
    if corpus is not None:
        report.corpus = corpus.info()
    return report
