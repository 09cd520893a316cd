"""repro — a full-system reproduction of *Speculative Dynamic Vectorization*
(Pajuelo, González, Valero; ISCA 2002).

The package layers, bottom-up:

* :mod:`repro.isa` — a 64-bit RISC-like ISA with a two-pass assembler;
* :mod:`repro.functional` — the architectural interpreter and trace;
* :mod:`repro.workloads` — a structured program builder, kernel library
  and 12 synthetic SPEC95-like benchmarks;
* :mod:`repro.memory` — set-associative caches, the L1/L2/memory chain,
  scalar ports and the 4-word wide bus;
* :mod:`repro.frontend` — gshare branch prediction and trace-driven fetch;
* :mod:`repro.pipeline` — the cycle-level out-of-order superscalar model
  (Table 1 of the paper);
* :mod:`repro.core` — the paper's contribution: the Table of Loads, the
  VRMT, the vector register file with V/R/U/F element flags, and the
  speculative dynamic vectorization engine;
* :mod:`repro.analysis` / :mod:`repro.experiments` — trace analyses and
  one declaration per figure of the paper's evaluation;
* :mod:`repro.observe` — structured observability: typed event tracing
  and a metrics registry (zero overhead when off);
* :mod:`repro.verify` — differential fuzzing and invariant auditing:
  random-program campaigns through a three-way oracle (interpreter /
  scalar machine / V-mode machine), a coverage-gated corpus, and a
  divergence minimizer (``python -m repro fuzz``);
* :mod:`repro.api` — the **stable facade**: :func:`repro.api.simulate`,
  :func:`repro.api.grid`, :func:`repro.api.trace` and friends, with
  versioned JSON-able result objects.  External callers should start
  here.

Quickstart::

    import repro

    result = repro.simulate("swim", width=4, ports=1, mode="V")
    print(result.stats.summary())

    report = repro.api.grid(
        [("swim", 4, p, m) for p in (1, 2, 4) for m in ("noIM", "IM", "V")]
    )
    print(report.summary())

    events = repro.api.trace("turb3d", width=8, ports=2,
                             events=["validation", "squash"]).events

Every package root is lazy (:mod:`repro._lazy`): a name is imported on
first access, so ``import repro`` loads no subsystem and a command pays
only for the modules it runs.  The lower layers remain importable
directly (the quickstart of earlier releases still works)::

    from repro.isa import assemble
    from repro.functional import run_program
    from repro.pipeline import make_config, simulate

    program = assemble(open("kernel.s").read())
    trace = run_program(program)
    stats = simulate(make_config(width=4, ports=1, mode="V"), trace)
    print(stats.summary())
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".": (
        "analysis",
        "api",
        "core",
        "experiments",
        "frontend",
        "functional",
        "isa",
        "memory",
        "observe",
        "pipeline",
        "verify",
        "workloads",
    ),
    ".api": (
        "GridCancelled",
        "GridFailureError",
        "GridPoint",
        "GridReport",
        "RunResult",
        "TraceReport",
        "fuzz",
        "grid",
        "simulate",
        "trace",
    ),
})
__all__.append("__version__")
