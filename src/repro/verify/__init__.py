"""repro.verify — differential fuzzing and invariant auditing.

The paper's contract (§3) is that speculative dynamic vectorization is
*architecturally invisible*: a V-mode machine commits exactly the state
a scalar machine — and the functional interpreter — would.  The curated
kernels and the Hypothesis properties sample that contract; this package
audits it adversarially and continuously:

* :mod:`~repro.verify.fuzzer` — seeded random program genomes
  (strided/stride-breaking loads, RMW stores into live vector ranges,
  data-dependent branches, loop-carried dependences, FP/int mixes),
  mutation operators, and a persistent on-disk corpus gated by event
  coverage;
* :mod:`~repro.verify.oracle` — the three-way differential oracle
  (interpreter vs scalar machine vs V-mode machine with invariants
  armed) diffing final architectural state and commit-stream prefixes;
* :mod:`~repro.verify.minimize` — delta-debugging of diverging programs
  into minimal reproducers and self-contained ``.repro.json`` artifacts;
* :mod:`~repro.verify.campaign` — the bounded fuzz loop behind
  ``python -m repro fuzz run`` and the CI ``fuzz-smoke`` lane — with
  crash containment: an exception escaping the oracle becomes a
  ``crash`` divergence with a saved reproducer, never an aborted run;
* :mod:`~repro.verify.faults` — the deterministic fault-injection
  harness (``REPRO_FAULTS`` / :func:`~repro.verify.faults.install`)
  that makes workers crash, hang, raise, or corrupt disk-cache entries
  on demand, so the fault-tolerant experiment fabric
  (:mod:`repro.experiments.parallel`) and the cache's self-healing can
  be proven path by path.

See ``docs/TESTING.md`` for the test pyramid and triage workflow.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".": (
        "faults",
    ),
    ".campaign": (
        "CampaignReport",
        "DivergenceRecord",
        "run_campaign",
    ),
    ".faults": (
        "FaultSpec",
        "InjectedFault",
    ),
    ".fuzzer": (
        "Corpus",
        "Genome",
        "LoopSpec",
        "generate_genome",
        "mutate_genome",
        "synthesize",
    ),
    ".minimize": (
        "ARTIFACT_SCHEMA",
        "instruction_count",
        "load_artifact",
        "minimize_program",
        "program_from_dict",
        "program_to_dict",
        "replay_artifact",
        "save_artifact",
    ),
    ".oracle": (
        "AGREE",
        "DIVERGE",
        "INVALID",
        "Divergence",
        "OracleConfig",
        "OracleReport",
        "crash_report",
        "diff_memory",
        "run_oracle",
    ),
})
