"""Request parsing and content-hash request identity.

Two jobs, both boundary work:

* turn untrusted JSON bodies into validated :class:`GridPoint` lists and
  parameter dicts, rejecting anything malformed with a
  :class:`WireError` the server maps to a ``400`` error envelope;
* compute each request's **dedup key**.  The key is built from the same
  per-point content-hash identity the disk cache uses
  (:func:`repro.experiments.runner.point_cache_key` — benchmark, scale,
  resolved machine config *and* source digest), so
  two requests coalesce exactly when the cache would consider their
  results interchangeable; editing simulator sources changes every key.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from ..experiments import figures as _figures, runner
from ..experiments.parallel import GridPoint
from ..experiments.registry import FIGURES
from ..workloads import ALL_BENCHMARKS

_MODES = ("noIM", "IM", "V")
_WIDTHS = (4, 8)
_PORTS = (1, 2, 4)


class WireError(ValueError):
    """A request body that cannot become a valid simulation request.

    ``kind`` feeds the ``repro.error/v1`` object the server answers with.
    """

    def __init__(self, kind: str, message: str) -> None:
        self.kind = kind
        super().__init__(message)


def _require(condition: bool, kind: str, message: str) -> None:
    if not condition:
        raise WireError(kind, message)


def _reject_unknown(obj: Dict, known, what: str) -> None:
    unknown = set(obj) - set(known)
    _require(not unknown, "request.invalid", f"unknown {what} keys: {sorted(unknown)}")


def _parse_scale(body: Dict) -> int:
    scale = body.get("scale", runner.EXPERIMENT_SCALE)
    _require(
        isinstance(scale, int) and scale > 0,
        "request.invalid", f"scale must be a positive integer, got {scale!r}",
    )
    return scale


def parse_point(obj) -> GridPoint:
    """One JSON grid-point object -> a validated :class:`GridPoint`."""
    _require(isinstance(obj, dict), "request.invalid", f"point must be an object, got {obj!r}")
    _reject_unknown(
        obj,
        ("benchmark", "width", "ports", "mode", "scale", "block_on_scalar_operand"),
        "point",
    )
    benchmark = obj.get("benchmark")
    _require(
        benchmark in ALL_BENCHMARKS,
        "benchmark.unknown",
        f"unknown benchmark {benchmark!r}; known: {', '.join(ALL_BENCHMARKS)}",
    )
    width = obj.get("width", 4)
    _require(width in _WIDTHS, "request.invalid", f"width must be one of {_WIDTHS}, got {width!r}")
    ports = obj.get("ports", 1)
    _require(ports in _PORTS, "request.invalid", f"ports must be one of {_PORTS}, got {ports!r}")
    mode = obj.get("mode", "V")
    _require(mode in _MODES, "request.invalid", f"mode must be one of {_MODES}, got {mode!r}")
    scale = _parse_scale(obj)
    block = obj.get("block_on_scalar_operand", True)
    _require(
        isinstance(block, bool),
        "request.invalid", f"block_on_scalar_operand must be a bool, got {block!r}",
    )
    return GridPoint(benchmark, width, ports, mode, scale, block)


def request_key(kind: str, points: List[GridPoint], extra: Optional[Dict] = None) -> str:
    """The request's dedup identity: kind + per-point cache keys + extras."""
    payload = {
        "kind": kind,
        "points": sorted(runner.point_cache_key(point) for point in points),
        "extra": extra or {},
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Per-endpoint request parsing: body -> (params, points, dedup key)
# ---------------------------------------------------------------------------


def parse_run_request(body: Dict) -> Tuple[Dict, str]:
    """``POST /run``: one grid-point object."""
    point = parse_point(body)
    return {"point": point}, request_key("run", [point])


def parse_trace_request(body: Dict) -> Tuple[Dict, str]:
    """``POST /trace``: a grid-point object plus capture controls.

    The caller's ``body`` is never mutated — dedup retries and error
    paths re-parse the same dict and must see identical input (the old
    ``body.pop`` stripped ``events``/``limit``/``capacity`` on first
    parse, so a second parse silently lost the capture controls).
    """
    _require(isinstance(body, dict), "request.invalid", "trace request must be an object")
    controls = ("events", "limit", "capacity")
    extras = {k: body.get(k) for k in controls}
    point = parse_point({k: v for k, v in body.items() if k not in controls})
    events = extras["events"]
    if events is not None:
        _require(
            isinstance(events, list) and all(isinstance(e, str) for e in events),
            "request.invalid", f"events must be a list of strings, got {events!r}",
        )
    limit = extras["limit"]
    _require(
        limit is None or (isinstance(limit, int) and limit > 0),
        "request.invalid", f"limit must be a positive integer, got {limit!r}",
    )
    capacity = extras["capacity"]
    _require(
        capacity is None or (isinstance(capacity, int) and capacity > 0),
        "request.invalid", f"capacity must be a positive integer, got {capacity!r}",
    )
    params = {"point": point, "events": events, "limit": limit, "capacity": capacity}
    key = request_key("trace", [point], {"events": events, "limit": limit, "capacity": capacity})
    return params, key


def parse_grid_request(body: Dict) -> Tuple[Dict, str]:
    """``POST /grid``: ``{"points": [point, ...]}``."""
    _require(isinstance(body, dict), "request.invalid", "grid request must be an object")
    raw = body.get("points")
    _require(
        isinstance(raw, list) and raw,
        "request.invalid", "grid request needs a non-empty 'points' list",
    )
    points = [parse_point(obj) for obj in raw]
    return {"points": points}, request_key("grid", points)


def parse_figure_request(body: Dict) -> Tuple[Dict, str]:
    """``POST /figure``: ``{"figure": name, "scale"?}``."""
    _require(isinstance(body, dict), "request.invalid", "figure request must be an object")
    _reject_unknown(body, ("figure", "scale"), "figure request")
    name = body.get("figure")
    _require(
        name in FIGURES,
        "figure.unknown",
        f"unknown figure {name!r}; known: {', '.join(FIGURES)}",
    )
    scale = _parse_scale(body)
    points = FIGURES[name].points(scale)
    params = {"figure": name, "scale": scale}
    return params, request_key("figure", points, {"figure": name})


def parse_headline_request(body: Dict) -> Tuple[Dict, str]:
    """``POST /headline``: ``{"scale"?}``."""
    _require(isinstance(body, dict), "request.invalid", "headline request must be an object")
    _reject_unknown(body, ("scale",), "headline request")
    scale = _parse_scale(body)
    points = _figures.headline_points(scale)
    params = {"scale": scale}
    return params, request_key("headline", points, {"scale": scale})
