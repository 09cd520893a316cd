"""Figure specs: every figure produces the full benchmark grid.

These run at a tiny scale (speed over statistical quality);
``python -m repro.experiments.report`` runs the same code at full scale.
"""

import pytest

from repro.experiments import (
    EXPERIMENT_SCALE,
    FIGURES,
    MODES,
    PORT_COUNTS,
    headline_claims,
    label,
    run_point,
)
from repro.workloads import ALL_BENCHMARKS

SCALE = 2_500


def test_grid_constants():
    assert PORT_COUNTS == (1, 2, 4)
    assert MODES == ("noIM", "IM", "V")
    assert EXPERIMENT_SCALE >= SCALE
    assert label(2, "IM") == "2pIM"


def test_run_point_memoized():
    from repro.experiments import runner

    before = runner.simulations_run()
    a = run_point("li", 4, 1, "V", SCALE)
    after_first = runner.simulations_run()
    b = run_point("li", 4, 1, "V", SCALE)
    # The second call is a memo hit (no new simulation) ...
    assert runner.simulations_run() == after_first >= before
    assert a == b
    # ... but callers get private copies: mutating one result must not
    # leak into the memo or into other callers.
    assert a is not b
    a.committed += 1
    a.usefulness["poison"] = 1
    c = run_point("li", 4, 1, "V", SCALE)
    assert c == b
    assert "poison" not in c.usefulness


def test_fig01_rows_are_distributions():
    rows = FIGURES["fig01"].rows(SCALE)
    assert set(rows) == set(ALL_BENCHMARKS)
    for values in rows.values():
        assert sum(values.values()) == pytest.approx(1.0, abs=1e-6)


def test_fig03_fractions_bounded():
    rows = FIGURES["fig03"].rows(SCALE)
    for values in rows.values():
        assert 0.0 <= values["vectorizable"] <= 1.0
        assert values["vectorizable"] == pytest.approx(
            values["loads"] + values["alu"], abs=1e-9
        )


def test_fig07_ideal_at_least_real():
    rows = FIGURES["fig07"].rows(SCALE)
    for values in rows.values():
        assert values["ideal"] >= values["real"] * 0.98  # tiny-scale noise


def test_fig09_fraction_bounded():
    for values in FIGURES["fig09"].rows(SCALE).values():
        assert 0.0 <= values["offset_nonzero"] <= 1.0


def test_fig10_reuse_bounded():
    for values in FIGURES["fig10"].rows(SCALE).values():
        assert 0.0 <= values["reused"] <= 1.0


@pytest.mark.parametrize("width", [4, 8])
def test_fig11_full_grid(width):
    rows = FIGURES[f"fig11_{width}way"].rows(SCALE)
    assert set(rows) == set(ALL_BENCHMARKS)
    for values in rows.values():
        assert len(values) == 9
        assert all(v > 0 for v in values.values())


def test_fig12_occupancy_bounded():
    rows = FIGURES["fig12_4way"].rows(SCALE)
    for values in rows.values():
        assert all(0.0 <= v <= 1.0 for v in values.values())


def test_fig12_more_ports_lower_occupancy():
    rows = FIGURES["fig12_4way"].rows(SCALE)
    for name, values in rows.items():
        assert values["4pnoIM"] <= values["1pnoIM"] + 1e-9


def test_fig13_histogram_sums_to_one():
    rows = FIGURES["fig13"].rows(SCALE)
    for values in rows.values():
        assert sum(values.values()) == pytest.approx(1.0, abs=1e-6)


def test_fig14_validations_bounded():
    rows = FIGURES["fig14"].rows(SCALE)
    assert any(v["validations"] > 0.05 for v in rows.values())
    for values in rows.values():
        assert 0.0 <= values["validations"] <= 1.0


def test_fig15_elements_sum_to_vl():
    rows = FIGURES["fig15"].rows(SCALE)
    for name, values in rows.items():
        total = values["comp_used"] + values["comp_not_used"] + values["not_comp"]
        if total:  # benchmarks with no vector registers report zeroes
            assert total == pytest.approx(4.0, abs=1e-6)


def test_headline_claims_keys_and_signs():
    claims = headline_claims(SCALE)
    assert set(claims) == {
        "speedup_1pV_vs_4pnoIM",
        "speedup_1pV_vs_8way_4pnoIM",
        "int_ipc_gain_over_IM",
        "fp_ipc_gain_over_IM",
        "int_mem_reduction",
        "fp_mem_reduction",
        "int_validation_fraction",
        "fp_validation_fraction",
    }
    # Direction of the paper's central claims must hold even at tiny scale.
    assert claims["int_ipc_gain_over_IM"] > 0
    assert claims["fp_ipc_gain_over_IM"] > 0
    assert claims["int_validation_fraction"] > 0.1



@pytest.fixture
def cold(tmp_path, monkeypatch):
    """Cold memo and a private, enabled disk cache."""
    from repro.experiments import runner

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runner.clear_memo()
    yield runner
    runner.clear_memo()


def test_each_table_reads_only_the_points_it_declares(cold, monkeypatch):
    # A read outside the declared points would simulate serially, outside
    # the batch and outside the fabric's retry and quarantine.
    from repro.experiments import diskcache
    from repro.experiments.ablations import ABLATIONS
    from repro.experiments.figures import headline_points
    from repro.experiments.parallel import run_grid

    runner, scale = cold, 1_000
    reads = [
        (spec.name, spec.points(scale), spec.rows)
        for spec in [*FIGURES.values(), *ABLATIONS.values()]
    ]
    reads.append(("headline", headline_points(scale), headline_claims))
    run_grid([point for _, points, _ in reads for point in points], jobs=1)
    load = diskcache.load_stats_entry
    for name, points, read in reads:
        runner.clear_memo()
        monkeypatch.setattr(diskcache, "load_stats_entry", load)
        run_grid(points, jobs=1)
        # Only the memo answers now: a point the batch lacked simulates.
        monkeypatch.setattr(diskcache, "load_stats_entry", lambda key: None)
        before = runner.simulations_run()
        read(scale)
        assert runner.simulations_run() == before, name
