"""The differential fuzz campaign, from the command line.

    PYTHONPATH=src python -m pytest smoke/test_fuzz.py

The campaign grows the fuzz corpus of the caller's disk cache (CI
restores ``~/.cache/repro/corpus`` between builds), and writes each
divergence's reproducer to ``fuzz-artifacts/`` at the repository root,
where CI uploads it from.
"""

from __future__ import annotations

from conftest import ROOT, repro


def test_fuzz_campaign_finds_no_divergence():
    # Exit 1 on any divergence; each one is minimized into a reproducer.
    repro(
        "fuzz", "run", "--budget-seconds", "60", "--max-programs", "50",
        "--artifact-dir", str(ROOT / "fuzz-artifacts"),
    )
    out = repro("fuzz", "corpus").stdout
    assert "entries:" in out and "coverage pairs:" in out
