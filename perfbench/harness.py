"""Process plumbing: pinned child environments, timed children, CPU and RSS.

Every program process the benchmark starts gets the environment built by
:func:`pinned_env`: a private result cache, no stray ``REPRO_*`` knob,
a fixed hash seed, and a byte-code cache that :func:`warm_pycache`
compiled before anything is timed.  Compiling on every launch costs
0.40-0.56 s against 0.34-0.35 s for a launch that reads compiled files,
and that spread was the main noise in interpreter start-up.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from .probe import TICK_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout; ``.bench_build`` is ignored by git.
WORK = ROOT / ".bench_build" / "perfbench"

PYTHON = sys.executable

#: variables that would change the measured code path if inherited.
SCRUBBED = (
    "REPRO_JOBS",
    "REPRO_KERNEL",
    "REPRO_BACKEND",
    "REPRO_FAULTS",
    "REPRO_NO_DISK_CACHE",
    "REPRO_TASK_TIMEOUT",
    "REPRO_MAX_RETRIES",
)

#: imported once with byte-code writes on, so timed launches never compile.
_WARM_IMPORTS = """
import importlib, pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
import concurrent.futures.process, http.client, http.server
import multiprocessing.connection, multiprocessing.popen_fork
import multiprocessing.queues, multiprocessing.synchronize
"""

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def require_source_tree() -> None:
    """Exit non-zero, printing no result, when the program is not here."""
    if not (SRC / "repro" / "__main__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}; run from a full checkout")


@contextmanager
def run_dir(tag: str) -> Iterator[Path]:
    """A fresh scratch directory for one benchmark run, removed afterwards."""
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def pinned_env(scratch: Path, cache_dir: Path) -> Dict[str, str]:
    """The environment every program process runs with."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    (scratch / "tmp").mkdir(exist_ok=True)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        REPRO_CACHE_DIR=str(cache_dir),
        XDG_CACHE_HOME=str(scratch / "xdg"),
        TMPDIR=str(scratch / "tmp"),
    )
    return env


def warm_pycache(env: Dict[str, str]) -> None:
    """Compile every module the workloads import into the pinned prefix."""
    writable = dict(env)
    del writable["PYTHONDONTWRITEBYTECODE"]
    subprocess.run([PYTHON, "-c", _WARM_IMPORTS], env=writable, cwd=ROOT, check=True)


@dataclass
class Child:
    """One finished program process, measured by the kernel's accounting."""

    returncode: int
    #: raw wall time, the probe pauses left out.
    wall_s: float
    #: user + system CPU of the process and every descendant it reaped.
    cpu_s: float
    #: peak resident set of the process or its largest reaped descendant.
    rss_mb: float
    stdout: str
    #: host slowdown of wall and of CPU time while it ran
    #: (see :mod:`perfbench.probe`).
    factor: float
    cpu_factor: float

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s / self.factor

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s / self.cpu_factor


def run_child(
    argv: List[str], env: Dict[str, str], out: Path, speed: HostSpeed, timeout: float = 170.0
) -> Child:
    """Run one program command; stdout goes to ``out`` and is returned.

    Every :data:`~perfbench.probe.TICK_S` seconds the command's process
    group is stopped while ``speed`` takes a probe, then continued; the
    pauses do not count in its wall time.
    """
    speed.probe()
    with open(out, "w") as stdout, open(out.with_suffix(".err"), "w") as stderr:
        first = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdout=stdout, stderr=stderr, start_new_session=True
        )
        status, usage, paused = _wait(proc, timeout, speed)
        wall = time.perf_counter() - start - paused
    last = time.monotonic()
    speed.probe()
    return Child(
        returncode=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out.read_text(),
        factor=speed.factor(first, last),
        cpu_factor=speed.factor(first, last, cpu=True),
    )


def _wait(proc: subprocess.Popen, timeout: float, speed: Optional[HostSpeed] = None):
    """``wait4`` with a deadline; a child past it is killed and reaped.

    Waits on a pidfd, so the wall clock stops when the child exits, not
    at the next poll.  With ``speed``, the child's process group is
    paused for a probe every tick; returns the seconds it spent paused.
    """
    pidfd = os.pidfd_open(proc.pid)
    deadline = time.monotonic() + timeout
    paused = 0.0
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                proc.kill()
                break
            exited, _, _ = select.select([pidfd], [], [], min(left, TICK_S) if speed else left)
            if exited:
                break
            if speed is not None:
                start = time.perf_counter()
                os.killpg(proc.pid, signal.SIGSTOP)
                try:
                    speed.probe()
                finally:
                    os.killpg(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - start
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage, paused


def import_setup_samples(
    env: Dict[str, str], scratch: Path, count: int, speed: HostSpeed
) -> List[Child]:
    """``count`` fresh interpreters importing the CLI module."""
    samples = []
    for index in range(count):
        child = run_child(
            [PYTHON, "-c", "import repro.__main__"], env, scratch / f"setup{index}.out", speed
        )
        if child.returncode != 0:
            raise RuntimeError(f"import of repro.__main__ failed: {child.stdout}")
        samples.append(child)
    return samples


# ---------------------------------------------------------------------------
# Long-lived processes (the service daemon): /proc accounting of a tree
# ---------------------------------------------------------------------------


def tree_pids(pid: int) -> List[int]:
    """``pid`` and every live descendant."""
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        found.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    todo.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def tree_cpu_s(pid: int) -> float:
    """CPU seconds used so far by ``pid``'s tree, reaped descendants included."""
    ticks = 0
    for member in tree_pids(pid):
        try:
            with open(f"/proc/{member}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # utime, stime, cutime, cstime are fields 14-17 of stat(5).
        ticks += sum(int(value) for value in fields[11:15])
    return ticks / _CLOCK_TICK


def tree_peak_rss_mb(pid: int) -> float:
    """Largest resident-set high-water mark among ``pid``'s live tree."""
    peak = 0
    for member in tree_pids(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def stop_tree(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Interrupt a daemon, reap it, and make sure no descendant outlives it."""
    members = tree_pids(proc.pid)
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        _wait(proc, timeout)
    deadline = time.monotonic() + timeout
    for member in members[1:]:
        while _alive(member):
            if time.monotonic() > deadline:
                os.kill(member, signal.SIGKILL)
            time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def spawn(argv: List[str], env: Dict[str, str], out: Path) -> subprocess.Popen:
    """Start a long-lived program process with output to files."""
    stdout = open(out, "w")
    stderr = open(out.with_suffix(".err"), "w")
    try:
        return subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout, stderr=stderr)
    finally:
        stdout.close()
        stderr.close()


def free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
