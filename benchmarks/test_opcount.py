"""The opcode probe (``opcount.py``) is the per-stage cost account of the
cycle loop, so its stage map and its totals are tested here."""

from __future__ import annotations

import opcount
from repro.pipeline.config import make_config
from repro.pipeline.machine import Machine
from repro.workloads.spec95 import cached_trace

#: what every opcode of a run is charged to.
STAGES = {"setup", "loop", "tick", "commit", "execute", "memory", "dispatch",
          "fetch", "finish"}


def test_every_stage_header_is_found_in_the_cycle_loop():
    # A renamed ``# ---- <stage>`` header would silently move its lines
    # into the section above it; every stage must keep its own lines.
    found = set(opcount.stage_lines(Machine._cycles).values())
    expected = set(opcount._STAGES) - {"begin"} | {"loop", "tick"}
    assert found == expected


def test_count_point_accounts_for_a_plain_run():
    report = opcount.count_point("li", 4, 1, "V", 1_000)
    stats = Machine(make_config(4, 1, "V"), cached_trace("li", 1_000)).run()
    assert report["committed"] == stats.committed
    assert report["cycles"] == stats.cycles
    assert set(report["stages"]) <= STAGES
    assert {"commit", "execute", "memory", "dispatch", "fetch"} <= set(report["stages"])
    # Stage counts are rounded per committed instruction to two places.
    per_committed = report["opcodes"] / report["committed"]
    assert abs(report["per_committed"] - per_committed) <= 0.005
    assert abs(sum(report["stages"].values()) - per_committed) <= (
        0.005 * len(report["stages"])
    )
