"""The reproduction's outputs are pinned: figure and ablation rows, the
headline claims and the figure-level statistics never drift unnoticed.

``output_pins.json`` holds one digest per output: the sha256 of the
sorted-key compact JSON of the value as ``--json`` prints it (perfbench's
digest).  Its two sections:

* ``tier1``, scale 1 500: the rows of every figure and every ablation,
  the headline claims and each of the 15 figure-level statistics,
  recomputed by the test below;
* ``smoke``, scale 12 000: the rows of the 12 figures and the headline
  claims, which ``smoke/test_outputs.py`` checks against the command
  line.

A change that moves an output re-records the pin on purpose, as the
fingerprints are re-recorded::

    PYTHONPATH=src python -m tests.verify.test_output_pins --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

from repro.experiments.ablations import ABLATIONS
from repro.experiments.figures import FIGURES, headline_claims
from repro.experiments.paper_reference import FIGURE_STATISTICS, STATISTICS

PIN_FILE = pathlib.Path(__file__).with_name("output_pins.json")
SECTIONS = {"tier1": 1_500, "smoke": 12_000}


def digest(value) -> str:
    """sha256 of ``value`` as ``--json`` prints it, keys sorted, compact."""
    printed = json.loads(json.dumps(value))
    blob = json.dumps(printed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def output_digests(section: str) -> dict:
    """The digests of one section, computed from this tree."""
    scale = SECTIONS[section]
    out = {
        "scale": scale,
        "figures": {name: digest(spec.rows(scale)) for name, spec in FIGURES.items()},
        "headline": digest(headline_claims(scale)),
    }
    if section == "tier1":
        out["ablations"] = {
            name: digest(spec.rows(scale)) for name, spec in ABLATIONS.items()
        }
        out["statistics"] = {
            key: digest(STATISTICS[key].measure(scale)) for key in FIGURE_STATISTICS
        }
    return out


def test_outputs_at_1500_match_the_pin():
    pins = json.loads(PIN_FILE.read_text())
    assert output_digests("tier1") == pins["tier1"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.verify.test_output_pins --write")
    document = {section: output_digests(section) for section in SECTIONS}
    PIN_FILE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
