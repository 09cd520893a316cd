"""Host-speed probe: every reported time is in reference seconds.

The benchmark shares two vCPUs of a host with other tenants, and their
speed drifts: the same pure-Python loop takes between 1x and 2x its
quiet-host time, for minutes at a stretch, with user time growing as much
as wall time (the cores run slower; they are not taken away).  Raw
timings of unchanged code then spread between runs further than any
useful regression bound.

So the benchmark times a fixed piece of interpreter work, :func:`work`,
over and over while it runs: before and after each timed step and, while
a program command runs, every :data:`TICK_S` seconds with the command
paused (``SIGSTOP``), so that nothing of the benchmark's own competes with
the probe or the probe with the program.  :meth:`HostSpeed.factor` is the
host's slowdown over an interval: the median probe time around it divided
by :data:`REFERENCE_S`.  A time measured over the interval divided by that
factor is the time the work takes on a host where the probe takes
:data:`REFERENCE_S`: a *reference second*.  The probe is timed twice: by
the wall clock, for wall times, and by its own CPU time, for CPU times:
when the hypervisor takes the cores away for a while, wall time grows but
CPU time does not, and only the wall-clock probe sees it.  Every time
metric the benchmark prints is in reference seconds, and the raw seconds
are printed beside them on ``#`` lines.  The probe is benchmark code, so
a change to the program moves reference seconds exactly as it moves raw
ones.

The probe walks a heap larger than a core's private cache as well as
running a tight loop: the host's slow stretches slow cache-missing code
most.  Against the service's memo-hit latency, a tight loop alone left
the spread of window medians at 17 % (19 % raw); with the heap walk it
fell to 12 %.
"""

from __future__ import annotations

import bisect
import random
import time
from statistics import median
from typing import List, Tuple

#: seconds between two probes while a command runs.
TICK_S = 0.25
#: probes this far outside an interval still describe it.
WINDOW_S = 0.5
#: objects in the heap the probe walks (about 8 MB).
HEAP_OBJECTS = 80_000
#: the probe's time on the quiet 2-vCPU Xeon host the benchmark was
#: written on, so that reference seconds read close to seconds there.
REFERENCE_S = 0.012


def _step(state, i):
    key = i & 63
    state[key] = state.get(key, 0) + (i * 7 ^ key)
    return key


#: objects the probe walks in a scattered order, several times the size
#: of a core's private cache, as the simulator's heap is: the host's slow
#: stretches slow code that misses the caches most.
_HEAP: List[Tuple[int, str]] = []
_ORDER: List[int] = []


def work(rounds: int = 8_000, reads: int = 16_000) -> int:
    """Calls, dict and list traffic, integer arithmetic, and reads
    scattered over a heap of small objects: the mix the simulator's
    interpreter loop spends its time on."""
    if not _HEAP:
        _HEAP.extend((i, str(i)) for i in range(HEAP_OBJECTS))
        _ORDER.extend(random.Random(0).sample(range(HEAP_OBJECTS), HEAP_OBJECTS))
    state, queue = {}, []
    for i in range(rounds):
        queue.append(_step(state, i))
        if len(queue) > 32:
            queue.pop(0)
    total = sum(queue)
    heap = _HEAP
    for index in _ORDER[:reads]:
        total += len(heap[index][1])
    return total


class HostSpeed:
    """The probe samples of one run, and the slowdown they give."""

    def __init__(self) -> None:
        #: ``(time.monotonic() at the start, wall seconds, CPU seconds)``
        #: per probe.
        self.samples: List[Tuple[float, float, float]] = []
        work()  # builds the heap, untimed

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            stamp = time.monotonic()
            start, cpu = time.perf_counter(), time.thread_time()
            work()
            self.samples.append(
                (stamp, time.perf_counter() - start, time.thread_time() - cpu)
            )

    def factor(self, start: float, end: float, cpu: bool = False) -> float:
        """Slowdown over ``[start, end]`` (``time.monotonic`` stamps), of
        wall time or, with ``cpu``, of CPU time.

        The median of the probes within :data:`WINDOW_S` of the interval,
        or of the nearest probe when none is that close.
        """
        if not self.samples:
            raise RuntimeError("host-speed probe has no sample")
        stamps = [sample[0] for sample in self.samples]
        lo = bisect.bisect_left(stamps, start - WINDOW_S)
        hi = bisect.bisect_right(stamps, end + WINDOW_S)
        if lo >= hi:
            nearest = min(range(len(stamps)), key=lambda i: abs(stamps[i] - start))
            lo, hi = nearest, nearest + 1
        return median(sample[2 if cpu else 1] for sample in self.samples[lo:hi]) / REFERENCE_S

    def overall(self) -> float:
        """Median wall-time slowdown over the whole run (for the notes)."""
        return median(sample[1] for sample in self.samples) / REFERENCE_S


if __name__ == "__main__":
    speed = HostSpeed()
    speed.probe(50)
    print(f"probe: min {min(sample[1] for sample in speed.samples):.6f} s, "
          f"median {speed.overall() * REFERENCE_S:.6f} s")
