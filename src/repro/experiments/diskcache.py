"""Persistent on-disk cache for simulation results and functional traces.

The full figure grid — 12 benchmarks x {4,8}-way x {1,2,4} ports x
{noIM, IM, V} — is the dominant wall-clock cost of every development
loop on a pure-Python cycle model.  The grid is also perfectly
replayable: a (benchmark, scale, seed, machine-configuration) point plus
the simulator sources determines its :class:`~repro.pipeline.stats.SimStats`
bit for bit.  This module caches both layers on disk:

* **stats/** — one JSON file per simulated grid point;
* **traces/** — one functional trace per (benchmark, scale, seed), in
  the binary columnar codec of :mod:`repro.functional.traceio` (the
  ``.jsonl`` suffix predates the codec);
* **soa/** — the :class:`~repro.functional.trace.TraceSoA` predecode of
  each cached trace, in the same codec: warm runs attach it instead of
  re-scanning every entry, so repeated experiments skip the functional
  re-decode as well as the functional execution;
* **corpus/** — interesting fuzzing inputs kept by the differential
  fuzzer (:mod:`repro.verify.fuzzer`): program genomes plus the coverage
  signature that earned them a slot.  Content-keyed only (no source
  digest — inputs outlive simulator edits).

Each ``stats/`` entry is written the moment its point finishes, so a
sweep killed mid-grid is resumed by running it again: every finished
point comes back as a disk hit and only the rest is simulated.

Keying — entries self-invalidate when anything that could change the
result changes:

* benchmark name, scale and seed;
* the resolved :class:`~repro.pipeline.config.MachineConfig` (every field,
  including the nested hierarchy and vector configs, via ``asdict``);
* a digest of the simulator's own source code (every ``repro`` module
  that feeds the result: isa, functional, workloads, frontend, memory,
  core, pipeline).  Editing the simulator orphans old entries rather than
  serving stale results.  Trace entries hash only the trace-relevant
  subset (isa + functional + workloads), so a timing-model edit keeps
  functional traces warm.

Location: ``$REPRO_CACHE_DIR`` if set, else ``$XDG_CACHE_HOME/repro``,
else ``~/.cache/repro``.  Set ``REPRO_CACHE_DIR=`` (empty) or
``REPRO_NO_DISK_CACHE=1`` to disable persistence entirely.

Robustness: a corrupted or truncated cache file is treated as a miss —
the point is re-simulated and the bad file overwritten.  Writes go
through a temp file + :func:`os.replace` so concurrent workers (the
grid's worker peers) never observe half-written entries.

Process-wide hit/miss/store counters feed the CLI's cache summary line
(``python -m repro figures`` reports how many points were served from
cache vs. simulated).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
import pathlib
import sys
import tempfile
from typing import Dict, Optional

from ..functional import traceio
from ..functional.trace import Trace
from ..pipeline.config import MachineConfig
from ..pipeline.stats import SimStats

#: bumped whenever the on-disk layout or serialization changes.
CACHE_FORMAT = 1

#: source groups hashed into cache keys.  Trace results depend only on
#: the functional subset; stats depend on everything.
_TRACE_SOURCE_PACKAGES = ("isa", "functional", "workloads")
_STATS_SOURCE_PACKAGES = _TRACE_SOURCE_PACKAGES + (
    "frontend",
    "memory",
    "core",
    "pipeline",
)


class CacheCounters:
    """Process-wide cache accounting (reset per CLI invocation)."""

    __slots__ = (
        "stats_hits",
        "stats_misses",
        "stats_stores",
        "trace_hits",
        "trace_misses",
        "soa_hits",
        "soa_misses",
        "soa_stores",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stats_hits = 0
        self.stats_misses = 0
        self.stats_stores = 0
        self.trace_hits = 0
        self.trace_misses = 0
        self.soa_hits = 0
        self.soa_misses = 0
        self.soa_stores = 0


COUNTERS = CacheCounters()


# ---------------------------------------------------------------------------
# Location
# ---------------------------------------------------------------------------


def cache_enabled() -> bool:
    """False when the user disabled persistence via the environment."""
    if os.environ.get("REPRO_NO_DISK_CACHE"):
        return False
    return os.environ.get("REPRO_CACHE_DIR", None) != ""


def cache_root() -> pathlib.Path:
    """The cache directory (not created until first write)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


def _stats_dir() -> pathlib.Path:
    return cache_root() / "stats"


def _traces_dir() -> pathlib.Path:
    return cache_root() / "traces"


def _soa_dir() -> pathlib.Path:
    return cache_root() / "soa"


def _corpus_dir() -> pathlib.Path:
    return cache_root() / "corpus"


def corpus_dir() -> pathlib.Path:
    """The fuzzing corpus directory (see :mod:`repro.verify.fuzzer`).

    The corpus lives beside the result caches so one knob
    (``REPRO_CACHE_DIR``) relocates everything, CI can cache it between
    runs, and ``cache info``/``cache clear`` account for it — but unlike
    the stats/trace sections its entries are *inputs*, keyed by content
    alone, and survive simulator edits (an interesting program stays
    interesting across timing-model changes).
    """
    return _corpus_dir()


# ---------------------------------------------------------------------------
# Source digests
# ---------------------------------------------------------------------------


def _package_files(package: str) -> list:
    root = pathlib.Path(__file__).resolve().parent.parent / package
    return sorted(p for p in root.glob("*.py"))


def _digest_packages(packages) -> str:
    h = hashlib.sha256()
    for package in packages:
        for path in _package_files(package):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


_DIGEST_MEMO: Dict[tuple, str] = {}


def source_digest(kind: str = "stats") -> str:
    """Digest of the sources feeding ``kind`` ("stats" or "trace").

    Computed once per process; editing any hashed file between processes
    changes the digest and thereby every cache key.
    """
    packages = _STATS_SOURCE_PACKAGES if kind == "stats" else _TRACE_SOURCE_PACKAGES
    memo = _DIGEST_MEMO.get(packages)
    if memo is None:
        memo = _DIGEST_MEMO[packages] = _digest_packages(packages)
    return memo


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


#: ``json.dumps(..., sort_keys=True, default=str)``, built once.
_KEY_JSON = json.JSONEncoder(sort_keys=True, default=str).encode


def config_fingerprint(config: MachineConfig) -> str:
    """Every field of a resolved config as JSON text (sorted keys), as a
    stats key renders it."""
    return _KEY_JSON(dataclasses.asdict(config))


def stats_key(name: str, scale: int, seed: int, config: MachineConfig) -> str:
    """Content-hash key for one simulated grid point."""
    return fingerprint_stats_key(name, scale, seed, config_fingerprint(config))


def fingerprint_stats_key(name: str, scale: int, seed: int, fingerprint: str) -> str:
    """:func:`stats_key` from an already-rendered :func:`config_fingerprint`.

    The key hashes ``json.dumps(payload, sort_keys=True, default=str)``
    of the payload ``{"format", "kind", "benchmark", "scale", "seed",
    "config", "source"}``.  With sorted keys the config object sits second
    and renders exactly as on its own, so the text is assembled around the
    pre-rendered fingerprint: a caller that sees the same config over and
    over (the runner, once per grid shape) renders its ~60 fields once.
    The source digest is still read on every call, so a source edit still
    moves every key.
    """
    blob = (
        f'{{"benchmark": {_KEY_JSON(name)}, "config": {fingerprint}, '
        f'"format": {_KEY_JSON(CACHE_FORMAT)}, "kind": "stats", '
        f'"scale": {_KEY_JSON(scale)}, "seed": {_KEY_JSON(seed)}, '
        f'"source": {_KEY_JSON(source_digest("stats"))}}}'
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def trace_key(name: str, scale: int, seed: int) -> str:
    """Content-hash key for one functional trace."""
    payload = {
        "format": CACHE_FORMAT,
        "kind": "trace",
        "benchmark": name,
        "scale": scale,
        "seed": seed,
        "source": source_digest("trace"),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# SimStats serialization
# ---------------------------------------------------------------------------


#: SimStats field names in declaration order (the order ``asdict`` emits).
_STATS_FIELDS = tuple(f.name for f in dataclasses.fields(SimStats))
_STATS_FIELD_SET = frozenset(_STATS_FIELDS)
_stats_values = operator.attrgetter(*_STATS_FIELDS)


def stats_to_dict(stats: SimStats) -> Dict:
    """Counter fields only — derived metrics are recomputed properties.

    Equal to ``dataclasses.asdict(stats)``, key order included, without
    its recursive deep copy: every field is an immutable number except
    ``usefulness``, a flat ``str -> float`` dict, which gets a fresh copy
    so the payload shares no mutable state with ``stats``.
    """
    payload = dict(zip(_STATS_FIELDS, _stats_values(stats)))
    payload["usefulness"] = dict(stats.usefulness)
    return payload


def stats_from_dict(payload: Dict) -> SimStats:
    if set(payload) != _STATS_FIELD_SET:
        raise ValueError("stats payload fields do not match SimStats")
    return SimStats(**payload)


def _corrupt_fault(section: str, path: pathlib.Path) -> None:
    """Fault-injection hook: corrupt the entry just written to ``path``.

    Lets the test suites prove the self-healing contract (corrupt entry
    == miss, dropped, rewritten) for every cache section without hand
    carving files.  Lazy import for the same cycle reason as
    :func:`repro.experiments.runner._fire_fault`; free when nothing is
    armed.
    """
    module = sys.modules.get("repro.verify.faults")
    if module is None:
        if not os.environ.get("REPRO_FAULTS"):
            return
        from ..verify import faults as module
    module.corrupt_file("cache.store", path, section=section)


def _atomic_write(path: pathlib.Path, data) -> None:
    """Write ``data`` (text or bytes) to ``path`` via a temp file + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Stats entries
# ---------------------------------------------------------------------------


def load_stats_entry(key: str) -> Optional[SimStats]:
    """The cached stats for ``key``, or None on miss/corruption.

    Any other field of the entry is ignored: entries written before
    metrics were derived from stats may still carry a ``metrics`` object.
    """
    if not cache_enabled():
        return None
    path = _stats_dir() / f"{key}.json"
    try:
        payload = json.loads(path.read_text())
        if payload.get("format") != CACHE_FORMAT:
            raise ValueError("format mismatch")
        stats = stats_from_dict(payload["stats"])
    except FileNotFoundError:
        COUNTERS.stats_misses += 1
        return None
    except (ValueError, KeyError, TypeError, OSError):
        # Corrupted/truncated/foreign file: treat as a miss and drop it so
        # the re-simulated result can take its place.
        COUNTERS.stats_misses += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None
    COUNTERS.stats_hits += 1
    return stats


def store_stats(
    key: str, stats: SimStats, describe: Optional[Dict] = None
) -> None:
    """Persist ``stats`` under ``key`` (atomic; no-op when disabled)."""
    if not cache_enabled():
        return
    payload = {"format": CACHE_FORMAT, "stats": stats_to_dict(stats)}
    if describe:
        payload["point"] = describe
    path = _stats_dir() / f"{key}.json"
    _atomic_write(path, json.dumps(payload))
    COUNTERS.stats_stores += 1
    _corrupt_fault("stats", path)


# ---------------------------------------------------------------------------
# Trace entries
# ---------------------------------------------------------------------------


def load_cached_trace(key: str) -> Optional[Trace]:
    """The cached functional trace for ``key``, or None."""
    if not cache_enabled():
        return None
    path = _traces_dir() / f"{key}.jsonl"
    try:
        trace = traceio.loads_trace_binary(path.read_bytes())
    except FileNotFoundError:
        COUNTERS.trace_misses += 1
        return None
    except (traceio.TraceFormatError, OSError):
        COUNTERS.trace_misses += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None
    COUNTERS.trace_hits += 1
    return trace


def store_trace(key: str, trace: Trace) -> None:
    """Persist a functional trace (atomic; no-op when disabled)."""
    if not cache_enabled():
        return
    path = _traces_dir() / f"{key}.jsonl"
    _atomic_write(path, traceio.dumps_trace_binary(trace))
    _corrupt_fault("trace", path)


# ---------------------------------------------------------------------------
# SoA entries (persisted TraceSoA predecodes; see Trace.soa)
# ---------------------------------------------------------------------------


def soa_key(name: str, scale: int, seed: int) -> str:
    """Content-hash key for one persisted :class:`~repro.functional.trace.TraceSoA`.

    Same determinants as :func:`trace_key` (the predecode is a pure
    function of the trace, and everything feeding the predecode — isa
    tables, trace layout — lives in the trace source packages) plus the
    SoA layout version, so a column-format bump orphans old entries
    without touching the trace section.
    """
    payload = {
        "format": CACHE_FORMAT,
        "kind": "soa",
        "soa_format": traceio.SOA_FORMAT_VERSION,
        "benchmark": name,
        "scale": scale,
        "seed": seed,
        "source": source_digest("trace"),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def load_soa(key: str):
    """The cached predecode for ``key``, or None on miss/corruption."""
    if not cache_enabled():
        return None
    path = _soa_dir() / f"{key}.soa"
    try:
        soa = traceio.loads_soa(path.read_bytes())
    except FileNotFoundError:
        COUNTERS.soa_misses += 1
        return None
    except (traceio.TraceFormatError, OSError):
        COUNTERS.soa_misses += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None
    COUNTERS.soa_hits += 1
    return soa


def store_soa(key: str, soa) -> None:
    """Persist a predecode (atomic; no-op when disabled)."""
    if not cache_enabled():
        return
    path = _soa_dir() / f"{key}.soa"
    _atomic_write(path, traceio.dumps_soa(soa))
    COUNTERS.soa_stores += 1
    _corrupt_fault("soa", path)


# ---------------------------------------------------------------------------
# Corpus entries (fuzzing inputs; see repro.verify.fuzzer)
# ---------------------------------------------------------------------------


def corpus_key(payload: Dict) -> str:
    """Content-hash key for one corpus entry (pure function of the input).

    Deliberately *not* salted with :func:`source_digest`: corpus entries
    are fuzzing inputs, not derived results, and must survive simulator
    edits.
    """
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def store_corpus_entry(key: str, payload: Dict) -> bool:
    """Persist one corpus entry (atomic); False when persistence is off."""
    if not cache_enabled():
        return False
    path = _corpus_dir() / f"{key}.json"
    _atomic_write(path, json.dumps(payload, sort_keys=True))
    _corrupt_fault("corpus", path)
    return True


def load_corpus_entry(key: str) -> Optional[Dict]:
    """One corpus entry by key, or None on miss/corruption (file dropped)."""
    if not cache_enabled():
        return None
    path = _corpus_dir() / f"{key}.json"
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise ValueError("corpus entry is not an object")
    except FileNotFoundError:
        return None
    except (ValueError, OSError):
        try:
            path.unlink()
        except OSError:
            pass
        return None
    return payload


def corpus_keys() -> list:
    """Sorted keys of every persisted corpus entry."""
    directory = _corpus_dir()
    if not cache_enabled() or not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.iterdir() if p.suffix == ".json")


# ---------------------------------------------------------------------------
# Maintenance (the ``python -m repro cache`` subcommand)
# ---------------------------------------------------------------------------


#: section name -> (directory fn, payload suffixes).  The one list of
#: sections: ``cache info`` labels each by its directory's name and
#: ``cache clear --section`` accepts exactly these keys.
_SECTIONS = {
    "stats": (_stats_dir, (".json",)),
    "trace": (_traces_dir, (".jsonl",)),
    "soa": (_soa_dir, (".soa",)),
    "corpus": (_corpus_dir, (".json",)),
}


def cache_info() -> Dict:
    """Per-section entry counts and byte totals, for ``cache info``.

    Flat ``<section>_entries`` / ``<section>_bytes`` keys for every
    section of :data:`_SECTIONS`, plus grand totals.
    """
    info = {
        "root": str(cache_root()),
        "enabled": cache_enabled(),
        "total_entries": 0,
        "total_bytes": 0,
    }
    for kind, (directory_fn, suffixes) in _SECTIONS.items():
        entries = 0
        size = 0
        directory = directory_fn()
        if directory.is_dir():
            for path in directory.iterdir():
                if path.suffix in suffixes:
                    entries += 1
                    size += path.stat().st_size
        info[f"{kind}_entries"] = entries
        info[f"{kind}_bytes"] = size
        info["total_entries"] += entries
        info["total_bytes"] += size
    return info


def clear_cache(section: Optional[str] = None) -> int:
    """Delete cache entries; returns the number of files removed.

    ``section`` restricts the sweep to one of :data:`_SECTIONS` (e.g.
    ``"corpus"``); None clears everything.
    """
    if section is not None and section not in _SECTIONS:
        raise ValueError(
            f"unknown cache section {section!r}; one of {sorted(_SECTIONS)}"
        )
    removed = 0
    sections = (
        _SECTIONS.values() if section is None else (_SECTIONS[section],)
    )
    for directory_fn, suffixes in sections:
        directory = directory_fn()
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            if path.suffix in suffixes + (".tmp",):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
    return removed
