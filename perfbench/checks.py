"""Output checks and the paper-fidelity figures of merit.

Every workload counts what it attempted and what failed in one
:class:`Tally`: grid points, requests, exit codes and envelope
validations.  :class:`Outputs` checks what the program computed: within
a run, every figures command, every repeat of a ``/run`` request and the
headline must agree with each other, and the run prints the digests of
its figure rows and headline claims so that runs, workloads and commits
can be compared.

``reference.json`` holds those digests per model, keyed by
:func:`model_digest` (the program sources the figure rows and claims are
computed from).  When the running model has an entry, a run must
reproduce it bit for bit; when it has none, the run says so and is
judged on its own agreement, so a change that moves the model on
purpose still gets a correct run and moves the accuracy metrics.  Add
the entry of the current model with::

    python3 -m perfbench.checks FIGURES.json HEADLINE.json

from the outputs of ``python -m repro figures --json`` and
``python -m repro headline --json``; it rewrites ``reference.json``.

The functions here import :mod:`repro` lazily: they run after the timed
phase, in the benchmark's own process.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SCALE = 12_000

#: §4.1 average vector length, SpecInt / SpecFP (stated in the paper's text;
#: the program's paper_reference module does not carry these two).
PAPER_AVERAGE_VECTOR_LENGTH = {"int": 8.84, "fp": 7.37}
#: a figure statistic is "close" within this share of the paper's value.
CLOSE = 0.25


class Tally:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def model_digest() -> str:
    """Digest of the program sources the figure rows and claims come from.

    The simulator's sources, as the result cache digests them, plus the
    analysis package and the module that turns statistics into figure
    rows and headline claims.
    """
    from repro.experiments import diskcache, figures

    h = hashlib.sha256(diskcache.source_digest("stats").encode())
    analysis = Path(diskcache.__file__).resolve().parent.parent / "analysis"
    for path in sorted(analysis.glob("*.py")) + [Path(figures.__file__)]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load_reference() -> Dict:
    return json.loads(REFERENCE.read_text())


class Outputs:
    """What one run computed: every source must agree, and match the
    reference of the running model when ``reference.json`` has one."""

    def __init__(self, tally: Tally, reference: Optional[Dict[str, str]]) -> None:
        self.tally = tally
        #: ``{figure name or "headline": digest}`` for this model, or None.
        self.reference = reference
        #: digests of the outputs the reference pins, and of ``/run`` answers.
        self.seen: Dict[str, str] = {}
        self.answers: Dict[str, str] = {}

    @classmethod
    def for_this_model(cls, tally: Tally) -> "Outputs":
        models = load_reference()["models"]
        return cls(tally, models.get(model_digest()))

    def agree(self, key: str, value, what: str, pinned: bool = True) -> None:
        """``value`` must match what ``key`` gave earlier in the run and,
        if ``pinned``, the reference."""
        value_digest = digest(value)
        first = (self.seen if pinned else self.answers).setdefault(key, value_digest)
        self.tally.check(value_digest == first, f"{what}: differs from earlier in the run")
        if pinned and self.reference is not None:
            self.tally.check(
                value_digest == self.reference.get(key),
                f"{what}: differs from perfbench/reference.json for this model",
            )

    def notes(self) -> List[str]:
        figures = {key: value for key, value in self.seen.items() if key != "headline"}
        reference = (
            "checked against perfbench/reference.json" if self.reference is not None
            else "no reference for this model in perfbench/reference.json"
        )
        lines = [f"output digests ({reference}):"]
        if figures:
            lines.append(f"  figure rows     {digest(figures)}")
        if "headline" in self.seen:
            lines.append(f"  headline claims {self.seen['headline']}")
        return lines


def parse_json(text: str, what: str, tally: Tally) -> Optional[Dict]:
    """The last stdout line as JSON, or None (counted as a failure)."""
    lines = text.strip().splitlines()
    try:
        payload = json.loads(lines[-1]) if lines else None
    except ValueError:
        payload = None
    tally.check(isinstance(payload, dict), f"{what}: no JSON payload on stdout")
    return payload if isinstance(payload, dict) else None


def valid_envelope(payload, what: str, tally: Tally) -> bool:
    from repro.schemas import EnvelopeError, validate_envelope

    try:
        validate_envelope(payload)
    except EnvelopeError as exc:
        return tally.check(False, f"{what}: invalid envelope: {exc}")
    return tally.check(payload.get("ok") is True, f"{what}: envelope not ok: {payload.get('error')}")


def check_figure_set(payload: Dict, outputs: Outputs) -> None:
    """Envelopes, grid accounting and row digests of ``figures --json``."""
    tally = outputs.tally
    if not valid_envelope(payload, "figure set", tally):
        failures = (payload.get("error") or {}).get("failures") or []
        tally.attempted += len(failures)
        tally.failed += len(failures)
        return
    tally.attempted += payload["grid"]["unique"]
    figures = payload["figures"]
    # The reference's figures, else those of the run's first command.
    known = outputs.reference or outputs.seen
    expected = sorted(name for name in known if name != "headline") or sorted(figures)
    tally.check(sorted(figures) == expected, f"figure set: figures {sorted(figures)}, expected {expected}")
    for name in expected:
        figure = figures.get(name)
        if figure is not None and valid_envelope(figure, f"figure {name}", tally):
            outputs.agree(name, figure["rows"], f"figure {name}")


def check_headline(payload: Dict, outputs: Outputs) -> Optional[Dict[str, float]]:
    """The claims of a ``repro.headline/v1`` envelope, if it checks out."""
    if not valid_envelope(payload, "headline", outputs.tally):
        return None
    outputs.agree("headline", payload["claims"], "headline")
    return payload["claims"]


def headline_accuracy(claims: Dict[str, float]) -> Dict[str, float]:
    """``headline_err_pp`` and ``headline_sign_agree`` against the paper."""
    from repro.experiments.paper_reference import HEADLINE, same_sign

    errors = [abs(claims[key] - paper) * 100.0 for key, paper in HEADLINE.items()]
    return {
        "headline_err_pp": sum(errors) / len(errors),
        "headline_sign_agree": float(
            sum(same_sign(claims[key], paper) for key, paper in HEADLINE.items())
        ),
    }


def figure_statistics(scale: int = SCALE) -> Dict[str, tuple]:
    """``{statistic: (paper, measured)}`` for the 15 figure-level values of
    EXPERIMENTS.md, computed the way ``repro.experiments.report`` does.

    Reads the current ``REPRO_CACHE_DIR``; points the run did not compute
    are simulated here, after the timed phase.
    """
    from repro.analysis import average_vector_length, mean, vectorizable_fraction
    from repro.analysis.stride_profile import merge_histograms, stride_histogram
    from repro.experiments import paper_reference as paper
    from repro.experiments.runner import run_point
    from repro.workloads import SPEC_FP, SPEC_INT
    from repro.workloads.spec95 import cached_trace

    suites = {"int": SPEC_INT, "fp": SPEC_FP}
    everyone = list(SPEC_INT) + list(SPEC_FP)

    def over(names, fn):
        return mean([fn(name) for name in names])

    def small_strides(names):
        hist = merge_histograms(stride_histogram(cached_trace(n, scale)) for n in names)
        strided = sum(hist[str(k)] for k in range(10))
        return sum(hist[str(k)] for k in range(4)) / strided if strided else 0.0

    def conflicts(name):
        stats = run_point(name, 4, 1, "V", scale)
        return stats.store_conflicts / stats.committed_stores if stats.committed_stores else 0.0

    def elements(name, fates):
        avg = run_point(name, 8, 1, "V", scale).avg_elements
        return sum(avg[fate] for fate in fates)

    out = {}
    for suite, names in suites.items():
        out[f"vectorizable_{suite}"] = (
            paper.VECTORIZABLE_FRACTION[suite],
            over(names, lambda n: vectorizable_fraction(cached_trace(n, scale)).fraction),
        )
        out[f"validation_{suite}"] = (
            paper.HEADLINE[f"{suite}_validation_fraction"],
            over(names, lambda n: run_point(n, 8, 1, "V", scale).validation_fraction),
        )
        out[f"store_conflicts_{suite}"] = (paper.STORE_CONFLICT_RATE[suite], over(names, conflicts))
        out[f"small_strides_{suite}"] = (paper.SMALL_STRIDE_FRACTION[suite], small_strides(names))
        out[f"vector_length_{suite}"] = (
            PAPER_AVERAGE_VECTOR_LENGTH[suite],
            over(names, lambda n: average_vector_length(cached_trace(n, scale)).average),
        )
    out["cfi_reuse_int"] = (
        paper.CFI_REUSE_INT,
        over(SPEC_INT, lambda n: run_point(n, 4, 1, "V", scale).cfi_reuse_fraction),
    )
    out["elements_computed"] = (
        paper.ELEMENTS["computed"],
        over(everyone, lambda n: elements(n, ("computed_used", "computed_unused"))),
    )
    out["elements_validated"] = (
        paper.ELEMENTS["validated"],
        over(everyone, lambda n: elements(n, ("computed_used",))),
    )
    for mode in ("noIM", "IM"):
        out[f"ipc_8way_1port_{mode}"] = (
            paper.EIGHT_WAY_1PORT_IPC[mode],
            over(everyone, lambda n: run_point(n, 8, 1, mode, scale).ipc),
        )
    return out


def figstat_close(statistics: Dict[str, tuple]) -> float:
    """How many figure statistics land within ``CLOSE`` of the paper."""
    return float(
        sum(abs(measured - paper) <= CLOSE * abs(paper) for paper, measured in statistics.values())
    )


def main(argv: List[str]) -> int:
    """Add the running model's entry to ``reference.json``."""
    figures_path, headline_path = argv
    figures = json.loads(Path(figures_path).read_text())["figures"]
    claims = json.loads(Path(headline_path).read_text())["claims"]
    reference = load_reference()
    entry = {name: digest(figure["rows"]) for name, figure in figures.items()}
    entry["headline"] = digest(claims)
    reference["models"][model_digest()] = entry
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
