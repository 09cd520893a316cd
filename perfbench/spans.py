"""Spans recorded around calls into the program's layers.

A span has a name, a start and an end (``time.perf_counter``, which is
the system-wide monotonic clock on Linux, so spans from different
processes share one time line), the span that was open when it started
in the same thread (or the run's root span, for threads the benchmark
did not start), and the process id.  Spans stay in memory; a forked pool
worker writes its own spans to a file when it exits, and the traced run
reads those files once the workload is done.

A span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "pid", "attrs")

    def __init__(self, id, name, start, end=None, parent=None, pid=0, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.pid = pid
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> Dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Recorder:
    """The spans of one process; forked multiprocessing children start empty."""

    def __init__(self, out_dir: Path) -> None:
        import multiprocessing.util

        self.out_dir = out_dir
        self._reset()
        multiprocessing.util.register_after_fork(self, Recorder._forked)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.root: Optional[Span] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _forked(self) -> None:
        import multiprocessing.util

        self._reset()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this process's spans out (pool workers, at exit)."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps([span.to_dict() for span in self.spans]))

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self.root.id if self.root is not None else None
        span = Span(next(self._ids), name, time.perf_counter(), parent=parent, pid=self.pid)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def root_span(self, name: str = "workload"):
        with self.span(name) as span:
            self.root = span
            yield span

    def wrap(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is a module or a class.  For a module function, every
        loaded ``repro`` module that imported it by name is rebound too.
        ``after(span, args, kwargs, result)`` annotates a finished span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        if isinstance(owner, type):
            setattr(owner, attr, traced)
            return
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def load_worker_spans(out_dir: Path) -> List[Span]:
    spans = []
    for path in sorted(out_dir.glob("spans-*.json")):
        spans.extend(Span(**fields) for fields in json.loads(path.read_text()))
    return spans


def _covered(intervals: Iterable[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[tuple, float]:
    """``{(pid, id): self time}``: duration minus the union of its children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.pid, span.parent)].append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[(span.pid, span.id)]
            if child.end > span.start and child.start < span.end
        ]
        out[(span.pid, span.id)] = span.duration - _covered(clipped)
    return out


def layer_self_times(spans: List[Span], root: Span) -> Dict[str, float]:
    """Self time per layer within the root's process; the root is ``other``.

    ``other`` is the traced wall minus every layer's self time, so the
    layers and ``other`` add up to the wall by construction; concurrent
    children (service threads) that overlap would make it negative.
    """
    mine = [span for span in spans if span.pid == root.pid]
    selfs = self_times(mine)
    layers: Dict[str, float] = defaultdict(float)
    for span in mine:
        if span is not root:
            layers[span.layer] += selfs[(span.pid, span.id)]
    layers["other"] = root.duration - sum(layers.values())
    return dict(layers)
