"""Node-level fault-tolerant scheduler over ``python -m repro worker`` peers.

This is the one execution fabric for cache-cold grid points that leave
the calling process: ``run_grid(jobs=N)`` spawns and closes one per
call, and long-lived callers (the service daemon, tests) own
one and pass it in.  It charges *points* with attempts and quarantines
the poisoned ones, and charges *nodes* with strikes:

* every peer gets a reader thread that turns its stdout into events
  (results, task errors, protocol garbage, EOF) and keeps a
  ``last_frame`` liveness clock fed by heartbeats;
* a **dead peer** — EOF, an undecodable frame, or frame silence beyond
  ``heartbeat_timeout`` — forfeits its in-flight point, which is charged
  one ``node.lost`` attempt and reassigned to the front of its batch's
  queue (``GridReport.points_reassigned``); the slot takes a strike and
  is respawned with a bumped generation;
* strikes are charged to the batch whose point was in flight: a slot
  that takes ``NODE_MAX_STRIKES`` of them under one batch is **barred**
  from that batch, so a host that keeps dying stops eating the batch's
  time, exactly as a point that keeps failing stops eating retries —
  while the other batches keep the slot, so one poisoned request never
  costs a concurrent healthy one its peers;
* a slot that keeps dying with no point in flight (or cannot be
  spawned) is **quarantined** for every batch: no more respawns;
* a point whose hosts keep dying under it exhausts ``max_retries`` and
  quarantines with kind ``node.lost``; if every slot is barred or
  quarantined while a batch's work remains, its leftovers fail with
  kind ``node.unavailable``;
* ``policy.task_timeout`` is a per-task clock (the peer's heartbeats
  make "alive but slow" visible): a task past its deadline charges a
  ``timeout`` attempt and the peer — possibly wedged — is recycled.

Results are accepted from a peer only for its current in-flight task;
anything from a peer already declared dead is dropped (its point was
reassigned — the disk cache deduplicates the double computation).

The scheduler is persistent and shared: one dispatcher thread serves
any number of concurrent :meth:`execute` batches from one set of peers,
handing free peers to the batches with queued points in turn.  A new
batch wakes the dispatcher at once.  Cancelling a batch drops only its
queued points and recycles only the peers running its points; the
other batches and the scheduler carry on.  Quarantine is scoped to a
busy period: the first batch admitted after the scheduler went idle
finds every slot revived with a clean record, so a daemon does not
lose nodes for good to the failures of the past.  Should the dispatcher
itself fail, every waiting batch and every later call raises instead of
hanging.  Peers live until :meth:`close` sends shutdown frames and
reaps them.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from .. import parallel
from ..parallel import FaultPolicy, GridPoint, GridReport, TaskFailure
from ..runner import EXPERIMENT_SCALE
from . import protocol

#: node strikes (peer losses) before a slot is barred or quarantined.
NODE_MAX_STRIKES = 2

#: worker heartbeat period, seconds.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: frame silence after which a peer is declared lost, seconds.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0


def _worker_env() -> Dict[str, str]:
    """The child environment: inherit everything (REPRO_CACHE_DIR,
    REPRO_FAULTS, REPRO_NO_DISK_CACHE...) and make sure ``repro`` is importable
    even when the parent runs from a source tree."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    parts = [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class _Peer:
    """One live worker subprocess: pipes, reader thread, liveness clock."""

    def __init__(self, slot: int, generation: int, command: List[str],
                 events: "queue.Queue") -> None:
        self.slot = slot
        self.generation = generation
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_worker_env(),
        )
        self.pid = self.process.pid
        #: monotonic time of the last well-formed frame (any type).
        self.last_frame = time.monotonic()
        #: (task id, _Batch, GridPoint, dispatch time) or None.
        self.inflight: Optional[tuple] = None
        #: the Warmup this peer has yet to answer, or None.
        self.warming: Optional["Warmup"] = None
        self.dead = False
        self._reader = threading.Thread(
            target=self._read_loop, args=(events,), daemon=True
        )
        self._reader.start()

    def _read_loop(self, events: "queue.Queue") -> None:
        stream = self.process.stdout
        while True:
            try:
                frame = protocol.read_frame(stream)
            except protocol.FrameError as exc:
                events.put(("garbage", self, str(exc)))
                return
            except Exception as exc:
                events.put(("eof", self, str(exc)))
                return
            if frame is None:
                events.put(("eof", self, "stream closed"))
                return
            self.last_frame = time.monotonic()
            kind = frame.get("type")
            if kind in ("heartbeat", "hello"):
                continue  # liveness only; not worth a queue slot
            events.put(("frame", self, frame))

    def send(self, payload: Dict) -> bool:
        try:
            self.process.stdin.write(protocol.encode_frame(payload))
            self.process.stdin.flush()
            return True
        except Exception:
            return False

    def kill(self) -> None:
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except Exception:
                pass
        try:
            self.process.kill()
        except Exception:
            pass
        try:
            self.process.wait(timeout=5)
        except Exception:
            pass


class _Slot:
    """One logical node: survives peer deaths, accumulates accounting."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.peer: Optional[_Peer] = None
        self.generations = 0
        self.strikes = 0
        self.completed = 0
        self.quarantined = False

    @property
    def live(self) -> bool:
        return not self.quarantined and self.peer is not None and not self.peer.dead

    def accounting(self, batch: "_Batch") -> Dict:
        """This slot as ``batch`` saw it: its own strikes count too."""
        return {
            "node": self.index,
            "generations": self.generations,
            "completed": self.completed,
            "strikes": self.strikes + batch.strikes.get(self.index, 0),
            "quarantined": self.quarantined or batch.bars(self),
        }


class _Batch:
    """One :meth:`DistributedScheduler.execute` call's share of the work."""

    def __init__(self, points, policy, report, on_result, cancel, progress) -> None:
        self.pending = deque(points)
        self.attempts: Dict[GridPoint, int] = {point: 0 for point in points}
        #: slot index -> peers lost while running this batch's points.
        self.strikes: Dict[int, int] = {}
        self.outcomes: List[tuple] = []
        #: tasks of this batch currently on a peer.
        self.running = 0
        self.policy = policy
        self.report = report
        self.on_result = on_result
        self.cancel = cancel
        self.progress = progress
        #: the dispatcher's exception, should it die serving this batch.
        self.error: Optional[BaseException] = None
        self.done = threading.Event()

    def bars(self, slot: "_Slot") -> bool:
        return self.strikes.get(slot.index, 0) >= NODE_MAX_STRIKES


class Warmup:
    """One warm-up (:meth:`DistributedScheduler.start_warm`) awaiting its peers."""

    def __init__(self, benchmarks, scale: int) -> None:
        self.benchmarks = list(benchmarks)
        self.scale = scale
        self.waiting = 0
        self.warmed = 0
        self.done = threading.Event()

    def answer(self, warmed: bool) -> None:
        self.waiting -= 1
        self.warmed += warmed
        if self.waiting <= 0:
            self.done.set()

    def wait(self, timeout: Optional[float] = 60.0) -> int:
        """Wait up to ``timeout`` seconds; returns how many peers answered."""
        self.done.wait(timeout)
        return self.warmed


class DistributedScheduler:
    """Shard grid points over ``nodes`` worker-subprocess slots."""

    def __init__(
        self,
        nodes: int = 2,
        *,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ) -> None:
        if nodes < 1:
            raise ValueError(f"nodes must be a positive integer, got {nodes}")
        self.nodes = nodes
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._events: "queue.Queue" = queue.Queue()
        self._slots = [_Slot(i) for i in range(nodes)]
        self._batches: List[_Batch] = []
        self._turn = 0
        self._task_id = 0
        self._closed = False
        #: set once the dispatcher thread died of an unexpected exception.
        self._error: Optional[BaseException] = None
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    @property
    def restarts(self) -> int:
        """Peer respawns so far (a slot's first spawn is not a restart)."""
        return sum(max(0, slot.generations - 1) for slot in self._slots)

    # -- public surface ----------------------------------------------------

    def execute(
        self,
        points: List[GridPoint],
        *,
        policy: FaultPolicy,
        report: GridReport,
        on_result=None,
        cancel=None,
        progress=None,
    ) -> List[tuple]:
        """Run one batch; returns worker-outcome tuples
        ``(point, stats_dict, simulated)``.

        Blocks until every point completed or quarantined into
        ``report.failed``.  Safe to call from several threads at once.
        Raises ``RuntimeError`` if the scheduler is closed or its
        dispatcher failed.
        ``on_result(point, stats_dict)`` streams each result as its frame
        arrives; ``progress(event, **data)`` receives this batch's point
        and node events.  ``cancel`` (checked once per dispatcher tick)
        stops the batch early: its queued points are dropped, the peers
        running its points are recycled, and the outcomes gathered so
        far are returned with ``report.cancelled`` set.  Workers persist
        each result to the shared disk cache before framing it back, so
        even abandoned in-flight points may survive for the next batch.
        """
        batch = _Batch(points, policy, report, on_result, cancel, progress)
        self._submit("batch", batch)
        batch.done.wait()
        if batch.error is not None:
            raise RuntimeError("scheduler dispatcher failed") from batch.error
        return batch.outcomes

    def start_warm(self, benchmarks=(), scale: int = EXPERIMENT_SCALE) -> Warmup:
        """Spawn every peer now and have it load ``benchmarks``' traces,
        without waiting: the returned :class:`Warmup` is the wait.

        Each peer walks the list from its own offset, so every trace is
        built once and the other peers load it from the shared disk
        cache.
        """
        request = Warmup(benchmarks, scale)
        self._submit("warm", request)
        return request

    def close(self) -> None:
        """Stop the dispatcher and shut every peer down (idempotent).

        Batches still running return with ``report.cancelled`` set.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        if thread is not None:
            self._events.put(("stop", None, None))
            if thread is not threading.current_thread():
                thread.join()
        for slot in self._slots:
            peer = slot.peer
            if peer is None or peer.dead:
                continue
            peer.send({"type": "shutdown"})
        deadline = time.monotonic() + 2.0
        for slot in self._slots:
            peer = slot.peer
            if peer is None or peer.dead:
                continue
            try:
                peer.process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except Exception:
                pass
            peer.kill()
            slot.peer = None

    def __enter__(self) -> "DistributedScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the dispatcher thread ---------------------------------------------

    def _submit(self, kind: str, payload) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler already closed")
            if self._error is not None:
                raise RuntimeError("scheduler dispatcher failed") from self._error
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._dispatch_loop, name="repro-scheduler", daemon=True
                )
                self._thread.start()
            self._events.put((kind, None, payload))

    def _dispatch_loop(self) -> None:
        try:
            self._serve()
        except BaseException as exc:
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        """The dispatcher died: release every waiter with the exception."""
        with self._lock:
            self._error = exc
        # _submit enqueues under the lock and now refuses, so after this
        # drain no batch or warm-up can be left waiting.
        waiting = list(self._batches)
        while True:
            try:
                kind, _, payload = self._events.get_nowait()
            except queue.Empty:
                break
            if kind == "batch":
                waiting.append(payload)
            elif kind == "warm":
                payload.done.set()
        for batch in waiting:
            batch.error = exc
            batch.done.set()
        for slot in self._slots:
            if slot.peer is not None and slot.peer.warming is not None:
                slot.peer.warming.done.set()

    def _serve(self) -> None:
        tick = max(0.05, min(self.heartbeat_interval, 0.25))
        while True:
            try:
                kind, peer, payload = self._events.get(timeout=tick)
            except queue.Empty:
                kind = None
            if kind == "stop":
                for batch in list(self._batches):
                    batch.report.cancelled = True
                    self._finish(batch)
                for slot in self._slots:
                    if slot.peer is not None and slot.peer.warming is not None:
                        slot.peer.warming.done.set()
                return
            if kind == "batch":
                self._admit(payload)
            elif kind == "warm":
                self._start_warmup(payload)
            elif kind is not None:
                self._on_peer_event(kind, peer, payload)
            self._reap_cancelled()
            self._sweep()
            self._dispatch()
            self._settle()

    def _emit(self, event: str, batch: Optional[_Batch], **data) -> None:
        if batch is None or batch.progress is None:
            return
        try:
            batch.progress(event, **data)
        except Exception:
            pass  # a broken observer must not fail the fabric

    def _spawn(self, slot: _Slot, batch: Optional[_Batch]) -> bool:
        command = [
            sys.executable, "-m", "repro", "worker",
            "--node", str(slot.index),
            "--generation", str(slot.generations),
            "--heartbeat", str(self.heartbeat_interval),
        ]
        try:
            slot.peer = _Peer(slot.index, slot.generations, command, self._events)
        except Exception as exc:
            slot.peer = None
            slot.strikes += 1
            slot.quarantined = slot.strikes >= NODE_MAX_STRIKES
            self._emit("node.spawn_failed", batch, node=slot.index, error=str(exc))
            return False
        slot.generations += 1
        self._emit(
            "node.spawn",
            batch,
            node=slot.index,
            generation=slot.peer.generation,
            pid=slot.peer.pid,
        )
        return True

    def _ensure_peers(self, batch: Optional[_Batch]) -> None:
        """Lazy first spawn, and respawn after earlier losses."""
        for slot in self._slots:
            if not slot.live and not slot.quarantined:
                self._spawn(slot, batch)

    def _admit(self, batch: _Batch) -> None:
        if not self._batches:
            # Idle -> busy: a new busy period starts every slot afresh.
            for slot in self._slots:
                slot.strikes = 0
                slot.quarantined = False
        self._ensure_peers(batch)
        self._batches.append(batch)

    def _start_warmup(self, request: Warmup) -> None:
        self._ensure_peers(None)
        live = [slot for slot in self._slots if slot.live]
        names = request.benchmarks
        for i, slot in enumerate(live):
            offset = i * len(names) // len(live)
            sent = slot.peer.send({
                "type": "warm",
                "benchmarks": names[offset:] + names[:offset],
                "scale": request.scale,
            })
            if sent:
                slot.peer.warming = request
                request.waiting += 1
        if request.waiting == 0:
            request.done.set()

    def _charge(self, batch: _Batch, point: GridPoint, kind: str, detail: str) -> bool:
        """One failed attempt; True when the point is now quarantined."""
        batch.attempts[point] += 1
        if batch.attempts[point] > batch.policy.max_retries:
            batch.report.failed.append(
                TaskFailure(point, kind, detail, batch.attempts[point])
            )
            self._emit("point.failed", batch, point=point.name, kind=kind, error=detail)
            return True
        batch.report.retries += 1
        return False

    def _bury(self, slot: _Slot) -> Optional[tuple]:
        """Kill the slot's peer; returns what it had in flight (or None)."""
        peer = slot.peer
        peer.dead = True
        peer.kill()
        if peer.warming is not None:
            peer.warming.answer(False)
            peer.warming = None
        inflight, peer.inflight = peer.inflight, None
        if inflight is not None:
            inflight[1].running -= 1
        return inflight

    def _lose(self, slot: _Slot, reason: str, inflight_kind: str = "node.lost") -> None:
        """Declare the slot's peer dead: forfeit, strike, respawn."""
        generation = slot.peer.generation
        inflight = self._bury(slot)
        batch = inflight[1] if inflight is not None else None
        if batch is None:
            slot.strikes += 1
            strikes = slot.strikes
        else:
            batch.report.nodes_lost += 1
            strikes = batch.strikes[slot.index] = batch.strikes.get(slot.index, 0) + 1
        self._emit(
            "node.lost", batch, node=slot.index, generation=generation, reason=reason
        )
        if batch is not None:
            point = inflight[2]
            if not self._charge(batch, point, inflight_kind, reason):
                batch.pending.appendleft(point)
                batch.report.points_reassigned += 1
                self._emit("point.reassigned", batch, point=point.name, node=slot.index)
        if slot.strikes >= NODE_MAX_STRIKES:
            slot.quarantined = True
            slot.peer = None
        else:
            self._spawn(slot, batch)  # a slot barred by one batch serves the rest
        if strikes >= NODE_MAX_STRIKES:
            self._emit("node.quarantined", batch, node=slot.index, strikes=strikes)

    def _on_peer_event(self, kind: str, peer: _Peer, payload) -> None:
        slot = self._slots[peer.slot]
        if peer.dead or peer is not slot.peer:
            return  # stale event from an already-buried generation
        if kind == "garbage":
            self._lose(slot, f"undecodable frame: {payload}")
            return
        if kind == "eof":
            self._lose(slot, f"peer exited (rc={peer.process.poll()}): {payload}")
            return
        frame = payload
        ftype = frame.get("type")
        if ftype == "warmed":
            if peer.warming is not None:
                peer.warming.answer("error" not in frame)
                peer.warming = None
            return
        current = peer.inflight
        if (
            ftype not in ("result", "task.error")
            or current is None
            or frame.get("id") != current[0]
        ):
            return  # duplicate or stale id: ignore
        stats = frame.get("stats")
        if ftype == "result" and not isinstance(stats, dict):
            self._lose(slot, "result frame without stats")
            return
        _, batch, point, _ = current
        peer.inflight = None
        batch.running -= 1
        if ftype == "result":
            slot.completed += 1
            batch.outcomes.append((point, stats, bool(frame.get("simulated"))))
            parallel._notify_result(batch.on_result, point, stats)
            self._emit("point.done", batch, point=point.name, node=slot.index)
        else:
            detail = str(frame.get("error", "task error"))
            if not self._charge(batch, point, "error", detail):
                batch.pending.append(point)

    def _reap_cancelled(self) -> None:
        for batch in self._batches:
            if batch.cancel is None or not batch.cancel.is_set() or batch.report.cancelled:
                continue
            batch.report.cancelled = True
            self._emit(
                "cancelled",
                batch,
                pending=len(batch.pending),
                inflight=batch.running,
                completed=len(batch.outcomes),
            )
            batch.pending.clear()
            for slot in self._slots:
                peer = slot.peer
                if slot.live and peer.inflight is not None and peer.inflight[1] is batch:
                    # Recycled, not struck: the peer did nothing wrong.
                    self._bury(slot)
                    self._emit(
                        "node.recycled", batch, node=slot.index,
                        generation=peer.generation,
                    )
                    self._spawn(slot, batch)

    def _sweep(self) -> None:
        """Liveness: heartbeat silence and per-task deadlines."""
        now = time.monotonic()
        for slot in self._slots:
            if not slot.live:
                continue
            peer = slot.peer
            silence = now - peer.last_frame
            if silence > self.heartbeat_timeout:
                self._lose(slot, f"no frames for {silence:.1f}s")
                continue
            if peer.inflight is not None:
                _, batch, _, dispatched = peer.inflight
                timeout = batch.policy.task_timeout
                if timeout and now - dispatched > timeout:
                    self._lose(
                        slot, f"no result within {timeout:g}s", inflight_kind="timeout"
                    )

    def _next_batch(self, slot: _Slot) -> Optional[_Batch]:
        """The next batch with queued points that ``slot`` may serve,
        taking the batches in turn."""
        for _ in range(len(self._batches)):
            self._turn = (self._turn + 1) % len(self._batches)
            batch = self._batches[self._turn]
            if batch.pending and not batch.bars(slot):
                return batch
        return None

    def _dispatch(self) -> None:
        for slot in self._slots:
            if not slot.live or slot.peer.inflight is not None:
                continue
            batch = self._next_batch(slot)
            if batch is None:
                continue
            point = batch.pending.popleft()
            self._task_id += 1
            sent = slot.peer.send({
                "type": "task",
                "id": self._task_id,
                "point": list(point),
            })
            if not sent:
                batch.pending.appendleft(point)
                self._lose(slot, "task dispatch failed (broken pipe)")
                continue
            slot.peer.inflight = (self._task_id, batch, point, time.monotonic())
            batch.running += 1

    def _settle(self) -> None:
        for batch in self._batches:
            if not batch.pending or any(
                slot.live and not batch.bars(slot) for slot in self._slots
            ):
                continue
            # Every slot is quarantined or barred: fail whatever is left.
            for point in batch.pending:
                batch.report.failed.append(
                    TaskFailure(
                        point,
                        "node.unavailable",
                        "all worker nodes quarantined",
                        batch.attempts[point],
                    )
                )
            batch.pending.clear()
        for batch in list(self._batches):
            if not batch.pending and not batch.running:
                self._finish(batch)

    def _finish(self, batch: _Batch) -> None:
        batch.report.nodes = [slot.accounting(batch) for slot in self._slots]
        self._batches.remove(batch)
        batch.done.set()
