"""The v2 envelope contract: every registered schema round-trips through
``validate_envelope``, the ok/error coupling is enforced, and the retired
``repro.figures/v1`` and ``repro.service.job/v1`` spellings are rejected."""

from __future__ import annotations

import pytest

from repro import api
from repro.schemas import (
    SCHEMA_ERROR,
    SCHEMA_FIGURE_SET,
    SCHEMAS,
    EnvelopeError,
    envelope,
    error_dict,
    error_envelope,
    schema_names,
    validate_envelope,
    wrap_error,
)

#: one minimal *valid* payload per registered schema.  A schema added to
#: the registry without a row here fails test_every_schema_round_trips —
#: the table is the round-trip coverage contract.
MINIMAL = {
    "repro.run/v1": envelope("repro.run/v1", point={}, stats={}, derived={}),
    "repro.grid/v1": envelope("repro.grid/v1", accounting={}, failures=[], runs=[]),
    "repro.campaign/v1": envelope(
        "repro.campaign/v1", campaign={}, resume={}, accounting={}, failures=[]
    ),
    "repro.trace/v1": envelope(
        "repro.trace/v1", run={}, capture={}, crosscheck={}, events=[]
    ),
    "repro.figure/v1": envelope("repro.figure/v1", figure="fig14", rows=[]),
    "repro.figure.set/v1": envelope("repro.figure.set/v1", grid={}, figures={}),
    "repro.headline/v1": envelope(
        "repro.headline/v1", scale=1, sampled=False, claims={}
    ),
    "repro.fuzz/v1": envelope(
        "repro.fuzz/v1", seed=0, oracle={}, programs=0, divergences=[]
    ),
    "repro.fuzz.oracle/v1": envelope(
        "repro.fuzz.oracle/v1", verdict="AGREE", divergences=[], coverage={}
    ),
    "repro.fuzz.repro/v1": envelope(
        "repro.fuzz.repro/v1", program={}, oracle={}, report={}
    ),
    "repro.fuzz.replay/v1": envelope(
        "repro.fuzz.replay/v1", artifact="a.json", matches=True, recorded={}, replayed={}
    ),
    "repro.fuzz.corpus/v1": envelope(
        "repro.fuzz.corpus/v1", root=".", entries=0, coverage_pairs=0
    ),
    "repro.error/v1": error_envelope("kind", "message"),
    "repro.service.job/v2": envelope(
        "repro.service.job/v2", job={"state": "cancelled"}
    ),
    "repro.service.status/v1": envelope("repro.service.status/v1", service={}),
    "repro.service.metrics/v1": envelope(
        "repro.service.metrics/v1", metrics={}, latency={}
    ),
    "repro.service.event/v1": envelope("repro.service.event/v1", event={}),
}


def test_every_schema_round_trips():
    """The MINIMAL table covers the registry exactly, and every row
    validates as its own schema."""
    assert set(MINIMAL) == set(schema_names())
    for name, payload in MINIMAL.items():
        info = validate_envelope(payload)
        assert info["schema"] == name


def test_ok_error_coupling_enforced():
    good = envelope("repro.run/v1", point={}, stats={}, derived={})
    with pytest.raises(EnvelopeError, match="error is populated"):
        validate_envelope({**good, "error": error_dict("k", "m")})
    with pytest.raises(EnvelopeError, match="error is null"):
        validate_envelope({**good, "ok": False})
    with pytest.raises(EnvelopeError, match="missing 'error'"):
        payload = dict(good)
        del payload["error"]
        validate_envelope(payload)
    with pytest.raises(EnvelopeError, match="missing keys"):
        validate_envelope(envelope("repro.run/v1", point={}))  # stats/derived gone
    # ...but a *failed* envelope owes nothing beyond its error object
    validate_envelope(
        envelope("repro.run/v1", ok=False, error=error_dict("k", "m"))
    )
    with pytest.raises(EnvelopeError, match="unknown schema"):
        validate_envelope(envelope("repro.bogus/v1"))
    with pytest.raises(EnvelopeError, match="ok=false"):
        validate_envelope({"schema": SCHEMA_ERROR, "ok": True, "error": None})


def test_error_object_shape_enforced():
    with pytest.raises(EnvelopeError, match="missing keys"):
        validate_envelope(
            {"schema": SCHEMA_ERROR, "ok": False, "error": {"kind": "k"}}
        )
    with pytest.raises(EnvelopeError, match="retriable"):
        bad = error_dict("k", "m")
        bad["retriable"] = "yes"
        validate_envelope(wrap_error(bad))
    # wrap_error and error_envelope agree on the standalone error shape
    assert wrap_error(error_dict("k", "m")) == error_envelope("k", "m")


def test_job_schema_states_are_versioned():
    """Only v2 job payloads validate: v1 (which lacked ``cancelled``) is
    rejected outright, and v2 refuses an invented state."""
    with pytest.raises(EnvelopeError, match="unknown schema"):
        validate_envelope(envelope("repro.service.job/v1", job={"state": "done"}))
    with pytest.raises(EnvelopeError, match="unknown job state"):
        validate_envelope(
            envelope("repro.service.job/v2", job={"state": "paused"})
        )
    validate_envelope(envelope("repro.service.job/v2", job={"state": "cancelled"}))


def test_figures_alias_accepted_one_release_only():
    """``repro.figures/v1`` (the CLI's historical spelling) was accepted as
    an alias of ``repro.figure.set/v1`` for exactly one release; that
    release is over, so the old spelling is now an unknown schema."""
    payload = envelope("repro.figures/v1", grid={}, figures={})
    with pytest.raises(EnvelopeError, match="unknown schema"):
        validate_envelope(payload)
    assert "repro.figures" not in SCHEMAS
    assert "repro.figures/v1" not in schema_names()
    assert SCHEMA_FIGURE_SET in schema_names()


def test_real_api_payloads_validate():
    """Live ``to_dict()`` payloads (not synthetic minima) pass the shared
    validator: a tiny grid, its nested runs, and a trace."""
    report = api.grid(
        [api.GridPoint("compress", 4, 1, "V", 2_610, True)]
    )
    grid_payload = report.to_dict()
    assert validate_envelope(grid_payload)["name"] == "repro.grid"
    assert grid_payload["ok"] is True
    for run in grid_payload["runs"]:
        assert validate_envelope(run)["name"] == "repro.run"

    trace_payload = api.trace("compress", mode="V", scale=2_110).to_dict()
    assert validate_envelope(trace_payload)["name"] == "repro.trace"
