"""Deterministic fault injection for robustness tests.

The fault-tolerant experiment fabric (:mod:`repro.experiments.parallel`)
and the crash-contained fuzz campaign (:mod:`repro.verify.campaign`)
promise specific degradation behaviour — retry, quarantine, salvage,
self-heal — that only ever executes when something goes wrong.  This
module makes "something goes wrong" a deterministic, scriptable event so
the test suites (and the CI ``fault-smoke`` lane) can drive every
degradation path on demand:

* **sites** — named hook points sprinkled through the production code:

  - ``grid.point`` — entry of one grid-point computation
    (:func:`repro.experiments.runner.compute_point`), in the parent or a
    pool worker; context: ``benchmark``, ``width``, ``ports``, ``mode``,
    ``scale``;
  - ``oracle.run`` — entry of the differential oracle
    (:func:`repro.verify.oracle.run_oracle`); context: ``instructions``;
  - ``fuzz.program`` — one campaign iteration, before its oracle run
    (:func:`repro.verify.campaign.run_campaign`); context: ``index``;
  - ``cache.store`` — just *after* a disk-cache entry is written
    (:mod:`repro.experiments.diskcache`); context: ``section`` (one of
    ``stats`` / ``trace`` / ``soa`` / ``corpus``);
  - ``node.crash`` — a distributed worker peer receiving one task
    (:mod:`repro.experiments.distributed.worker`); context: ``node``,
    ``generation``, ``benchmark``, ``width``, ``ports``, ``mode``.
    ``crash`` kills the peer mid-task (a lost node), ``hang`` wedges it,
    ``raise`` surfaces as a transient task error frame;
  - ``node.heartbeat`` — one heartbeat tick of a worker peer; context:
    ``node``, ``generation``.  A matching ``raise`` silences the
    heartbeat thread for good (a peer that is alive but unreachable);
  - ``transport.garbage`` — a worker peer about to send one protocol
    frame; context: ``node``, ``generation``, ``type`` (frame type).
    ``garbage`` / ``truncate`` corrupt the outgoing frame bytes via
    :func:`mangle_bytes`, which the scheduler must treat as a dead peer.

* **actions** — what happens when an armed spec matches a firing site:

  - ``raise`` — raise :class:`InjectedFault` (a transient or poisoned
    task, an oracle crash);
  - ``crash`` — ``os._exit(exit_code)``: the process dies without
    cleanup, which from a pool parent's perspective is a
    ``BrokenProcessPool``;
  - ``hang`` — sleep for ``delay`` seconds (a wedged simulation, for
    timeout tests);
  - ``truncate`` / ``garbage`` / ``delete`` / ``tmp_leftover`` — file
    corruption actions for the ``cache.store`` site: keep only the first
    half of the written bytes, overwrite with non-JSON noise, remove the
    file, or drop an orphaned ``*.tmp`` beside it (a crash between
    ``mkstemp`` and ``os.replace``).

* **arming** — in-process via :func:`install` (or the :func:`injected`
  context manager), and/or through the ``REPRO_FAULTS`` environment
  variable holding the same specs as a JSON list — the env form is what
  reaches process-pool workers, which inherit the parent's environment.

Determinism is the point: a spec matches on exact context values
(``{"benchmark": "li", "mode": "V"}``), optionally limited to the first
``times`` firings *per process*, so a test can script "the first two
attempts at this exact point fail, the third succeeds" and get the same
run every time.  With nothing armed every hook is a cheap no-op, and the
production modules only import this module lazily once ``REPRO_FAULTS``
is set — the happy path never pays for it (see the ``BENCH_perf.json``
guard).

This module is deliberately stdlib-only: it is imported (lazily) from
:mod:`repro.experiments.runner` and :mod:`repro.experiments.diskcache`,
which the rest of :mod:`repro.verify` itself imports — any dependency
from here back into the package would cycle.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

#: environment variable carrying a JSON list of fault-spec objects.
FAULTS_ENV = "REPRO_FAULTS"

#: actions applicable at execution sites (grid.point / oracle.run / ...).
EXECUTION_ACTIONS = ("raise", "crash", "hang")

#: actions applicable at file sites (cache.store).
FILE_ACTIONS = ("truncate", "garbage", "delete", "tmp_leftover")

#: default exit status for the ``crash`` action (distinctive in waitpid).
CRASH_EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """The exception the ``raise`` action throws at a matching site."""


@dataclass
class FaultSpec:
    """One armed fault: where it fires, what it does, and how often.

    ``match`` is a subset-match against the firing site's context: every
    key must be present and equal (int/str compared leniently, so specs
    written as env-var JSON need not mirror Python types exactly).
    ``times`` bounds firings per process (None = every match fires).
    """

    site: str
    action: str
    match: Dict = field(default_factory=dict)
    times: Optional[int] = None
    delay: float = 30.0
    message: str = ""
    exit_code: int = CRASH_EXIT_CODE

    def __post_init__(self) -> None:
        if self.action not in EXECUTION_ACTIONS + FILE_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; one of "
                f"{EXECUTION_ACTIONS + FILE_ACTIONS}"
            )

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultSpec":
        known = {"site", "action", "match", "times", "delay", "message", "exit_code"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault-spec keys: {sorted(unknown)}")
        return cls(**payload)

    def describe(self) -> str:
        limit = "" if self.times is None else f" x{self.times}"
        return f"{self.action}@{self.site}{self.match or ''}{limit}"


class _Armed:
    """A spec plus its per-process remaining-firings counter."""

    __slots__ = ("spec", "remaining")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.remaining = spec.times  # None = unlimited

    def take(self) -> bool:
        if self.remaining is None:
            return True
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


#: specs armed programmatically (install / injected).
_INSTALLED: List[_Armed] = []

#: memo of the parsed REPRO_FAULTS value: (raw string, armed list).  The
#: armed list is reused while the env value is unchanged so ``times``
#: counters survive across firings within one process.
_ENV_CACHE: Optional[tuple] = None


SpecLike = Union[FaultSpec, Dict]


def _coerce(spec: SpecLike) -> FaultSpec:
    return spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)


def install(specs: Iterable[SpecLike]) -> None:
    """Arm ``specs`` in this process (additive; see :func:`clear`)."""
    _INSTALLED.extend(_Armed(_coerce(spec)) for spec in specs)


def clear() -> None:
    """Disarm every programmatically installed spec (env specs persist)."""
    del _INSTALLED[:]


@contextlib.contextmanager
def injected(specs: Iterable[SpecLike]):
    """Context manager: arm ``specs`` for the block, then disarm them."""
    armed = [_Armed(_coerce(spec)) for spec in specs]
    _INSTALLED.extend(armed)
    try:
        yield
    finally:
        for entry in armed:
            try:
                _INSTALLED.remove(entry)
            except ValueError:
                pass


def active() -> bool:
    """True when any fault source is armed (registry or environment)."""
    return bool(_INSTALLED) or bool(os.environ.get(FAULTS_ENV))


def _env_armed() -> List[_Armed]:
    global _ENV_CACHE
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        _ENV_CACHE = None
        return []
    if _ENV_CACHE is not None and _ENV_CACHE[0] == raw:
        return _ENV_CACHE[1]
    try:
        payload = json.loads(raw)
        if not isinstance(payload, list):
            raise ValueError("expected a JSON list of fault specs")
        armed = [_Armed(FaultSpec.from_dict(entry)) for entry in payload]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed {FAULTS_ENV}: {exc}") from None
    _ENV_CACHE = (raw, armed)
    return armed


def _matches(match: Dict, context: Dict) -> bool:
    for key, want in match.items():
        if key not in context:
            return False
        got = context[key]
        if want != got and str(want) != str(got):
            return False
    return True


def _select(site: str, context: Dict) -> List[FaultSpec]:
    fired = []
    for armed in list(_INSTALLED) + _env_armed():
        if armed.spec.site != site:
            continue
        if not _matches(armed.spec.match, context):
            continue
        if not armed.take():
            continue
        fired.append(armed.spec)
    return fired


def fire(site: str, **context) -> None:
    """Trigger any armed execution fault matching ``site``/``context``.

    Called from the production hook points; a no-op unless a matching
    spec is armed.  ``raise`` throws :class:`InjectedFault`, ``crash``
    exits the process without cleanup, ``hang`` sleeps ``delay`` seconds
    and then returns (so an un-timed-out hang still completes).
    """
    for spec in _select(site, context):
        if spec.action == "hang":
            time.sleep(spec.delay)
        elif spec.action == "crash":
            os._exit(spec.exit_code)
        elif spec.action == "raise":
            raise InjectedFault(
                spec.message or f"injected fault at {site}: {spec.describe()}"
            )


def mangle_bytes(site: str, data: bytes, **context) -> bytes:
    """Apply any armed corruption fault to an in-memory byte frame.

    The transport analogue of :func:`corrupt_file`: the distributed
    worker passes every outgoing protocol frame through this hook so a
    ``transport.garbage`` spec can simulate a flaky link.  ``garbage``
    replaces the frame with undecodable noise, ``truncate`` keeps only
    the first half (a torn write mid-frame); ``raise``/``crash``/``hang``
    behave as at execution sites.  Returns ``data`` unchanged when
    nothing matches.
    """
    for spec in _select(site, context):
        if spec.action == "garbage":
            data = b"\xff\xfenot a frame\x00" + data[: 4]
        elif spec.action == "truncate":
            data = data[: max(1, len(data) // 2)]
        elif spec.action == "hang":
            time.sleep(spec.delay)
        elif spec.action == "crash":
            os._exit(spec.exit_code)
        elif spec.action == "raise":
            raise InjectedFault(
                spec.message or f"injected fault at {site}: {spec.describe()}"
            )
    return data


def corrupt_file(site: str, path, **context) -> None:
    """Apply any armed file-corruption fault to ``path``.

    Called just after a cache entry lands on disk; simulates torn writes,
    foreign bytes, vanished files and orphaned temp files so the cache's
    self-healing (corrupt entry == miss, dropped and rewritten) can be
    proven for every section.
    """
    import pathlib

    path = pathlib.Path(path)
    for spec in _select(site, context):
        if spec.action == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        elif spec.action == "garbage":
            path.write_bytes(b"\x00not json at all\xff{[")
        elif spec.action == "delete":
            try:
                path.unlink()
            except OSError:
                pass
        elif spec.action == "tmp_leftover":
            (path.parent / (path.name + ".orphan.tmp")).write_bytes(b"{\"partial")
        elif spec.action in EXECUTION_ACTIONS:
            # raise/crash/hang may be aimed at store sites too (a writer
            # dying mid-store is a legitimate scenario).
            if spec.action == "hang":
                time.sleep(spec.delay)
            elif spec.action == "crash":
                os._exit(spec.exit_code)
            else:
                raise InjectedFault(
                    spec.message or f"injected fault at {site}: {spec.describe()}"
                )
