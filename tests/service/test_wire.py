"""Wire-layer parsing and content-hash request identity."""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.service import wire


def _point(**overrides):
    body = {"benchmark": "compress", "mode": "V", "scale": 2_000}
    body.update(overrides)
    return body


def _run_key(body):
    """A ``/run`` request's coalescing key, as the service computes it."""
    return wire.request_key("run", [wire.parse_point(body)])


class TestParsePoint:
    def test_defaults(self):
        point = wire.parse_point({"benchmark": "compress"})
        assert point == ("compress", 4, 1, "V", runner.EXPERIMENT_SCALE, True)

    @pytest.mark.parametrize(
        "overrides, kind",
        [
            ({"benchmark": "nope"}, "benchmark.unknown"),
            ({"width": 7}, "request.invalid"),
            ({"ports": 3}, "request.invalid"),
            ({"mode": "vector"}, "request.invalid"),
            ({"scale": 0}, "request.invalid"),
            ({"scale": "big"}, "request.invalid"),
            ({"block_on_scalar_operand": 1}, "request.invalid"),
            ({"sampling": [0, 5]}, "request.invalid"),
            ({"sampling": "dense"}, "request.invalid"),
            ({"typo_key": 1}, "request.invalid"),
            # Equal to (and hashing like) a valid integer, but not one:
            # each would share a memoized answer with its integer twin.
            ({"scale": True}, "request.invalid"),
            ({"scale": 2_000.0}, "request.invalid"),
            ({"ports": True}, "request.invalid"),
            ({"ports": 1.0}, "request.invalid"),
            ({"width": 4.0}, "request.invalid"),
        ],
    )
    def test_rejections_carry_error_kinds(self, overrides, kind):
        with pytest.raises(wire.WireError) as excinfo:
            wire.parse_point(_point(**overrides))
        assert excinfo.value.kind == kind

    def test_non_object_rejected(self):
        with pytest.raises(wire.WireError):
            wire.parse_point(["compress"])

    def test_same_simulation_same_point(self):
        """Field order and spelled-out defaults do not change the point:
        it is the key the ``/run`` answer memo is looked up by."""
        spelled = {
            "block_on_scalar_operand": True, "scale": 2_000, "ports": 1,
            "mode": "V", "width": 4, "benchmark": "compress",
        }
        assert wire.parse_point(spelled) == wire.parse_point(_point())
        assert wire.parse_point(_point(ports=2)) != wire.parse_point(_point())

    @pytest.mark.parametrize("control", ["limit", "capacity"])
    def test_trace_controls_are_integers(self, control):
        with pytest.raises(wire.WireError) as excinfo:
            wire.parse_trace_request(_point(**{control: True}))
        assert excinfo.value.kind == "request.invalid"


class TestRequestKey:
    def test_identical_requests_share_a_key(self):
        key_a = _run_key(_point())
        key_b = _run_key(_point())
        assert key_a == key_b

    def test_point_order_is_irrelevant_for_grids(self):
        a = _point()
        b = _point(benchmark="li")
        _, key_ab = wire.parse_grid_request({"points": [a, b]})
        _, key_ba = wire.parse_grid_request({"points": [b, a]})
        assert key_ab == key_ba

    def test_any_coordinate_change_changes_the_key(self):
        base = _run_key(_point())
        for overrides in (
            {"benchmark": "li"},
            {"mode": "IM"},
            {"scale": 2_001},
            {"width": 8},
            {"ports": 2},
            {"block_on_scalar_operand": False},
        ):
            other = _run_key(_point(**overrides))
            assert other != base, overrides

    def test_run_dedups_under_the_stats_entry_compute_point_writes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        point = wire.parse_point(_point(scale=1_500))
        runner.compute_point(point)
        entries = [path.stem for path in (tmp_path / "stats").iterdir()]
        assert entries == [runner.point_cache_key(point)]
        # The dedup key is a function of that stats key alone: points
        # naming one entry coalesce.
        monkeypatch.setattr(runner, "point_cache_key", lambda point: "one entry")
        key_a = _run_key(_point(scale=1_500))
        key_b = _run_key(_point(benchmark="li"))
        assert key_a == key_b

    def test_kind_partitions_the_key_space(self):
        """The same point as a run vs a one-point grid must not coalesce —
        their response envelopes differ."""
        run_key = _run_key(_point())
        _, grid_key = wire.parse_grid_request({"points": [_point()]})
        assert run_key != grid_key

    def test_trace_extras_partition_the_key_space(self):
        _, plain = wire.parse_trace_request(_point())
        _, limited = wire.parse_trace_request(_point(limit=10))
        assert plain != limited


class TestParseIsPure:
    def test_trace_parse_does_not_mutate_body(self):
        """Regression: ``parse_trace_request`` used to ``pop`` the capture
        controls out of the caller's dict, so a second parse of the same
        body silently lost events/limit/capacity (different dedup key,
        uncapped trace)."""
        body = _point(events=["validation"], limit=10, capacity=256)
        snapshot = dict(body)
        params_a, key_a = wire.parse_trace_request(body)
        assert body == snapshot  # caller's dict untouched
        params_b, key_b = wire.parse_trace_request(body)
        assert params_a == params_b
        assert key_a == key_b
        assert params_b["limit"] == 10 and params_b["events"] == ["validation"]


class TestRequestParsers:
    def test_grid_needs_points(self):
        for body in ({}, {"points": []}, {"points": "all"}):
            with pytest.raises(wire.WireError):
                wire.parse_grid_request(body)

    def test_figure_unknown_rejected(self):
        with pytest.raises(wire.WireError) as excinfo:
            wire.parse_figure_request({"figure": "fig99"})
        assert excinfo.value.kind == "figure.unknown"

    def test_figure_expands_to_registry_points(self):
        params, key = wire.parse_figure_request({"figure": "fig14", "scale": 2_000})
        assert params == {"figure": "fig14", "scale": 2_000}
        assert isinstance(key, str) and len(key) == 64

    def test_headline_scale_validated(self):
        with pytest.raises(wire.WireError):
            wire.parse_headline_request({"scale": -5})
        params, _ = wire.parse_headline_request({"scale": 2_000})
        assert params == {"scale": 2_000}

    @pytest.mark.parametrize(
        "parse, body",
        [
            (wire.parse_figure_request, {"figure": "fig14", "sampling": [300, 1_500]}),
            (wire.parse_figure_request, {"figure": "fig14", "typo_key": 1}),
            (wire.parse_headline_request, {"sampling": [300, 1_500]}),
            (wire.parse_headline_request, {"scale": 2_000, "typo_key": 1}),
        ],
    )
    def test_figure_and_headline_reject_unknown_keys(self, parse, body):
        with pytest.raises(wire.WireError) as excinfo:
            parse(body)
        assert excinfo.value.kind == "request.invalid"
