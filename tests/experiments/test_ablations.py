"""Ablation sweeps: shape and direction sanity at tiny scale, and their
grid points (one ``VectorConfig`` override on the 4w1pV point)."""

import dataclasses

import pytest

from repro.experiments import runner
from repro.experiments.ablations import ABLATIONS
from repro.experiments.figures import FIGURES
from repro.experiments.parallel import GridPoint, GridReport, run_grid
from repro.workloads import ALL_BENCHMARKS

SCALE = 2_500


def test_vector_length_sweep_shape():
    rows = ABLATIONS["ablation_vl"].rows(SCALE)
    assert set(rows) == set(ALL_BENCHMARKS)
    for values in rows.values():
        assert set(values) == {"VL=2", "VL=4", "VL=8"}
        assert all(v > 0 for v in values.values())


def test_register_starvation_costs_ipc():
    rows = ABLATIONS["ablation_regs"].rows(SCALE)
    starved = sum(v["fail@8"] for v in rows.values())
    full = sum(v["fail@128"] for v in rows.values())
    assert starved > full


def test_confidence_one_misspeculates_more():
    rows = ABLATIONS["ablation_conf"].rows(SCALE)
    eager = sum(v["fail@1"] for v in rows.values())
    careful = sum(v["fail@4"] for v in rows.values())
    assert eager >= careful


def test_damping_reduces_squashes():
    rows = ABLATIONS["ablation_damping"].rows(SCALE)
    damped = sum(v["squash_damped"] for v in rows.values())
    literal = sum(v["squash_literal"] for v in rows.values())
    assert damped <= literal


@pytest.fixture
def cold(tmp_path, monkeypatch):
    """Cold memo and a private, enabled disk cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    runner.clear_memo()
    yield tmp_path
    runner.clear_memo()


def test_default_column_is_the_plain_point(cold):
    # VL=4 and R=128 are both VectorConfig defaults: the two sweeps share
    # that column, and it is Fig 11's 4w1pV point, with no overrides.
    scale = 1_000
    plain = [GridPoint(name, 4, 1, "V", scale) for name in ALL_BENCHMARKS]
    assert set(plain) <= set(ABLATIONS["ablation_vl"].points(scale))
    assert set(plain) <= set(FIGURES["fig11_4way"].points(scale))
    before = runner.simulations_run()
    ABLATIONS["ablation_vl"].rows(scale)
    assert runner.simulations_run() - before == 36
    ABLATIONS["ablation_regs"].rows(scale)
    assert runner.simulations_run() - before == 36 + 24


def test_ablations_are_not_figures():
    assert not set(ABLATIONS) & set(FIGURES)
    points = [p for spec in ABLATIONS.values() for p in spec.points(1_000)]
    assert len(points) == 132 and len(set(points)) == 96


def test_override_naming_no_vector_field_raises(cold):
    before = runner.simulations_run()
    with pytest.raises(TypeError):
        runner.run_point("li", 4, 1, "V", 1_000, True, (("vector_lenght", 8),))
    assert runner.simulations_run() == before
    assert not (cold / "cache" / "stats").exists()


def test_override_points_on_worker_peers_equal_the_serial_run(cold, monkeypatch):
    points = [
        GridPoint("li", 4, 1, "V", 1_000, overrides=(("vector_length", 2),)),
        GridPoint("compress", 4, 1, "V", 1_000, overrides=(("num_registers", 8),)),
    ]
    serial = run_grid(points, jobs=1)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cold / "peers"))
    runner.clear_memo()
    report = GridReport()
    peers = run_grid(points, jobs=2, report=report)
    assert report.ok, report.failed
    assert report.simulated == 2 and report.nodes
    assert list(peers) == points
    assert {p: dataclasses.asdict(s) for p, s in peers.items()} == {
        p: dataclasses.asdict(s) for p, s in serial.items()
    }
