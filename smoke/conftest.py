"""Shared helpers of the smoke checks: real ``python -m repro`` processes.

Every check here drives the command line or a real ``serve`` daemon, the
way a user would, so these modules sit outside tier-1's ``testpaths``.
Run them all with::

    PYTHONPATH=src python -m pytest -q smoke

``repro(*args, **env)`` runs one command; ``serve(*args, **env)`` boots
one daemon.  Keyword arguments in upper case are environment variables
of that one process (``REPRO_FAULTS``, ``REPRO_CACHE_DIR``): a check
never arms a fault or moves the cache for another.  Neither helper
passes on an ambient ``REPRO_FAULTS`` or ``REPRO_NO_DISK_CACHE``, so the
checks mean the same whatever environment runs them.  The disk cache is
the caller's unless a check sets ``REPRO_CACHE_DIR`` itself; every check
that counts cache hits or injects a fault does.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import time
import uuid

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from tests.service.conftest import DaemonClient  # noqa: E402

#: variables a check must set itself if it wants them.
_NOT_INHERITED = ("REPRO_FAULTS", "REPRO_NO_DISK_CACHE")
#: marks every process of one daemon: the daemon and its worker peers.
_TAG = "REPRO_SMOKE_DAEMON"


def _environ(env) -> dict:
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    base = {k: v for k, v in os.environ.items() if k not in _NOT_INHERITED}
    return {**base, "PYTHONPATH": os.pathsep.join(paths), **env}


def repro(*args: str, status=0, module: str = "repro", **env: str):
    """Run ``python -m <module> *args``; the finished process.

    ``status`` is the exit status the check expects (``None``: any); a
    different one fails the check with the process's stderr.  A command
    that runs past 15 minutes is killed and fails the check.
    """
    proc = subprocess.run(
        [sys.executable, "-m", module, *args],
        env=_environ(env), capture_output=True, text=True, timeout=900,
    )
    if status is not None:
        assert proc.returncode == status, proc.stderr
    return proc


def live_processes(tag: str) -> list:
    """Pids of the processes that carry ``tag`` and have not exited.

    A daemon's worker peers inherit its environment, so the tag names the
    daemon and every peer it spawned, even after the daemon died and the
    peers were re-parented.  Zombies have exited and do not count.
    """
    marker = f"{_TAG}={tag}".encode()
    pids = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if marker not in (entry / "environ").read_bytes().split(b"\0"):
                continue
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:  # exited meanwhile, or not ours to read
            continue
        if state != "Z":
            pids.append(int(entry.name))
    return pids


def wait_until(predicate, timeout: float, what: str):
    """Poll ``predicate`` every 0.2 s until it returns a truthy value."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out after {timeout} s waiting for {what}")
        time.sleep(0.2)


class Daemon:
    """One ``python -m repro serve`` process; ``client`` talks to it once
    it listens."""

    def __init__(self, process: subprocess.Popen, tag: str, log: pathlib.Path) -> None:
        self.process = process
        self.tag = tag
        self.log = log
        self.port = None
        self.client = None

    def stderr(self) -> str:
        return self.log.read_text()

    def peers(self) -> list:
        """Pids of this daemon's live worker peers."""
        return [pid for pid in live_processes(self.tag) if pid != self.process.pid]

    def _status_ok(self) -> bool:
        try:
            return self.client.request("GET", "/status", timeout=5)[0] == 200
        except OSError:
            return False

    def kill(self) -> None:
        """Kill the daemon as ``kill`` does."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        self.process.wait(timeout=30)


@pytest.fixture
def serve(tmp_path):
    """Factory: ``serve(*args, listen=True, **env) -> Daemon``.

    Boots ``python -m repro serve --port 0 *args`` (a later ``--port``
    wins) with its stderr in a file, reads the port from its ``listening
    on`` line and waits for ``GET /status``.  With ``listen=False`` it
    instead waits for the process to exit (a start-up failure).  At
    teardown every daemon is killed and none of its worker peers may
    outlive it.
    """
    daemons = []

    def boot(*args: str, listen: bool = True, timeout: float = 60.0, **env: str) -> Daemon:
        tag = uuid.uuid4().hex
        log = tmp_path / f"serve-{len(daemons)}.err"
        with open(log, "w") as stderr:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
                env=_environ({**env, _TAG: tag}),
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        daemon = Daemon(process, tag, log)
        daemons.append(daemon)
        if not listen:
            process.wait(timeout=timeout)
            return daemon

        def listening():
            assert process.poll() is None, f"serve exited early:\n{daemon.stderr()}"
            return re.search(r"listening on http://[^:\s]+:(\d+)", daemon.stderr())

        daemon.port = int(wait_until(listening, timeout, "serve to listen").group(1))
        daemon.client = DaemonClient("127.0.0.1", daemon.port)
        wait_until(daemon._status_ok, timeout, "GET /status")
        return daemon

    yield boot
    for daemon in daemons:
        daemon.kill()
    for daemon in daemons:
        wait_until(lambda: not live_processes(daemon.tag), 10,
                   f"the worker peers of daemon {daemon.process.pid} to exit")
