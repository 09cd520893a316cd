"""The remote executor peer behind ``python -m repro worker``.

A worker speaks the length-prefixed frame protocol
(:mod:`.protocol`) on its **stdin/stdout** pipe pair: tasks (and
trace warm-up requests) in, results out, with a daemon heartbeat thread beating every ``heartbeat`` seconds
so the scheduler can tell a long simulation from a dead or wedged peer.
stdout is reserved for frames — nothing else in the process writes to
it — and stderr stays a normal diagnostic channel.

Results are doubly delivered: each computed point is stored in the
shared content-addressed disk cache by :func:`runner.compute_point`
*and* shipped back as a ``result`` frame.  The frame is the fast path;
the cache is the durable one — if the peer dies (or its frame is
corrupted in transit) after the store, the reassigned attempt on
another node completes as a cache hit, bit-identical.

Fault sites (:mod:`repro.verify.faults`), armed via ``$REPRO_FAULTS``
which subprocess peers inherit:

* ``node.crash`` — fired as each task is received, with ``node`` /
  ``generation`` / point coordinates in context.  ``crash`` kills the
  peer mid-task, ``hang`` wedges it, ``raise`` becomes a ``task.error``
  frame (a transient task failure, not a node loss);
* ``node.heartbeat`` — fired each beat; a matching ``raise`` silences
  the heartbeat thread permanently (alive but unreachable — only
  detectable by frame silence);
* ``transport.garbage`` — corrupts an outgoing frame (see
  :func:`.protocol.transport_fault`).
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict

from ..parallel import GridPoint, _worker_run_point
from ..runner import _fire_fault, simulator
from . import protocol


class _FrameWriter:
    """Serialized frame output shared by the main and heartbeat threads."""

    def __init__(self, stream, node: int, generation: int) -> None:
        self._stream = stream
        self._lock = threading.Lock()
        self._node = node
        self._generation = generation

    def send(self, payload: Dict) -> None:
        data = protocol.encode_frame(payload)
        data = protocol.transport_fault(
            data,
            node=self._node,
            generation=self._generation,
            type=payload.get("type"),
        )
        with self._lock:
            self._stream.write(data)
            self._stream.flush()


def _heartbeat_loop(writer: _FrameWriter, node, generation, interval, stop) -> None:
    while not stop.wait(interval):
        try:
            _fire_fault("node.heartbeat", node=node, generation=generation)
            writer.send({"type": "heartbeat", "node": node, "generation": generation})
        except Exception:
            # Injected silence or a broken pipe: either way this thread
            # has nothing useful left to do.  The scheduler notices the
            # quiet and declares the peer lost.
            return


def _warm(frame: Dict) -> Dict:
    """Load the simulator and the traces a ``warm`` frame names; the
    ``warmed`` answer, which lists every trace this peer now holds.
    After it, no task this peer runs pays an import."""
    _, cached_trace = simulator()
    from ...workloads.spec95 import resident_traces

    answer = {"type": "warmed", "pid": os.getpid()}
    try:
        for name in frame.get("benchmarks", ()):
            cached_trace(name, frame["scale"])
    except Exception as exc:
        answer["error"] = f"{type(exc).__name__}: {exc}"
    answer["traces"] = resident_traces()
    return answer


def worker_main(node: int = 0, generation: int = 0, heartbeat: float = 1.0) -> int:
    """Run the peer loop until shutdown/EOF; returns the exit status."""
    stdin = sys.stdin.buffer
    writer = _FrameWriter(sys.stdout.buffer, node, generation)
    writer.send(
        {"type": "hello", "node": node, "generation": generation, "pid": os.getpid()}
    )
    stop = threading.Event()
    beater = threading.Thread(
        target=_heartbeat_loop,
        args=(writer, node, generation, heartbeat, stop),
        daemon=True,
    )
    beater.start()
    try:
        while True:
            frame = protocol.read_frame(stdin)
            if frame is None or frame.get("type") == "shutdown":
                return 0
            if frame.get("type") == "warm":
                writer.send(_warm(frame))
                continue
            if frame.get("type") != "task":
                continue  # future-proofing: unknown parent frames are ignored
            task_id = frame.get("id")
            # JSON turned the overrides' pairs into lists: back to
            # tuples, so the point is hashable and equals the parent's.
            *coords, overrides = frame["point"]
            point = GridPoint(*coords, tuple(map(tuple, overrides)))
            try:
                _fire_fault(
                    "node.crash",
                    node=node,
                    generation=generation,
                    benchmark=point.name,
                    width=point.width,
                    ports=point.ports,
                    mode=point.mode,
                )
                _, stats, simulated = _worker_run_point(point)
            except Exception as exc:
                writer.send(
                    {
                        "type": "task.error",
                        "id": task_id,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
            else:
                writer.send(
                    {
                        "type": "result",
                        "id": task_id,
                        "stats": stats,
                        "simulated": simulated,
                    }
                )
    except protocol.FrameError:
        # A desynchronized inbound stream is unrecoverable by design.
        return 2
    except (BrokenPipeError, OSError):
        return 1
    finally:
        stop.set()
