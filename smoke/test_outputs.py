"""The figures, the headline claims and EXPERIMENTS.md, from the command
line.

    PYTHONPATH=src python -m pytest smoke/test_outputs.py

The checks share one throwaway disk cache: the headline check simulates
every headline point at the default scale on two worker peers, the
EXPERIMENTS.md check then finds those points there, and the figure pin
check finds every figure point there.  The headline claims and the
figure rows must match the ``smoke`` section of
``tests/verify/output_pins.json``.
"""

from __future__ import annotations

import json

import pytest

from conftest import ROOT, repro
from repro.experiments.paper_reference import HEADLINE, same_sign
from tests.verify.test_output_pins import PIN_FILE, digest

#: the 12 000-scale digests of the figure rows and the headline claims.
PINS = json.loads(PIN_FILE.read_text())["smoke"]


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return {"REPRO_CACHE_DIR": str(tmp_path_factory.mktemp("outputs-cache"))}


def test_parallel_figure_fan_out(cache):
    # Worker-peer fan-out and the disk cache: one figure on two peers.
    out = repro("figures", "--only", "fig14", "--scale", "2000", "--jobs", "2", **cache).stdout
    assert "Figure 14" in out


def test_headline_signs(cache):
    # Every claim but the 8-way one keeps the paper's sign.  The 4-way-1pV
    # vs 8-way-4pnoIM claim is a known sign flip (EXPERIMENTS.md): this
    # reproduction's 8-way baseline is stronger than the paper's, so that
    # razor-thin +3 % turns negative.
    payload = json.loads(repro(
        "headline", "--scale", str(PINS["scale"]), "--jobs", "2", "--json", **cache,
    ).stdout)
    assert payload["ok"], payload.get("error")
    claims = payload["claims"]
    assert digest(claims) == PINS["headline"], "headline claims moved off the pin"
    checked = [k for k in claims if k != "speedup_1pV_vs_8way_4pnoIM"]
    assert len(checked) == 7, sorted(claims)
    flipped = [k for k in checked if not same_sign(claims[k], HEADLINE[k])]
    assert not flipped, {k: claims[k] for k in flipped}


def test_experiments_md_is_the_generated_one(cache, tmp_path):
    # One grid batch of every figure, ablation and headline point, on one
    # worker peer per CPU; the committed file must be its output.
    out = tmp_path / "EXPERIMENTS.md"
    repro("--out", str(out), module="repro.experiments.report", **cache)
    assert out.read_bytes() == (ROOT / "EXPERIMENTS.md").read_bytes(), (
        "EXPERIMENTS.md drifted from `python -m repro.experiments.report`"
    )


def test_figure_rows_match_the_pin(cache):
    payload = json.loads(repro(
        "figures", "--scale", str(PINS["scale"]), "--jobs", "2", "--json", **cache,
    ).stdout)
    assert payload["ok"], payload.get("error")
    figures = payload["figures"]
    assert sorted(figures) == sorted(PINS["figures"])
    moved = sorted(
        name for name, figure in figures.items()
        if digest(figure["rows"]) != PINS["figures"][name]
    )
    assert not moved, f"figure rows moved off the pin: {moved}"
