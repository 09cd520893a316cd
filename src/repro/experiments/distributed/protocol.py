"""Length-prefixed JSON frame protocol between scheduler and worker peers.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON (an object).  The framing is deliberately minimal:
it runs over any reliable byte stream — today the stdin/stdout pipes of
``python -m repro worker`` subprocesses, tomorrow an ``ssh host python
-m repro worker`` channel, which carries the exact same bytes.

Frame types, parent → worker:

* ``{"type": "task", "id": n, "point": [...]}`` — one grid point to
  compute (``point`` is the field list of a
  :class:`~repro.experiments.parallel.GridPoint`, its ``overrides`` a
  list of ``[field, value]`` pairs);
* ``{"type": "warm", "benchmarks": [...], "scale": n}`` — load those
  functional traces now (each peer is sent its own share of the list);
* ``{"type": "shutdown"}`` — finish up and exit cleanly.

Worker → parent:

* ``{"type": "hello", "node": i, "generation": g, "pid": p}`` — sent
  once at startup;
* ``{"type": "heartbeat", "node": i, "generation": g}`` — periodic
  liveness beacon, sent from a daemon thread even mid-simulation;
* ``{"type": "result", "id": n, "stats": {...}, "simulated": bool}`` —
  one completed task (stats in the disk cache's dict form, so the
  payload is transport- and version-stable; the parent derives any
  metrics from them);
* ``{"type": "task.error", "id": n, "error": "..."}`` — the task raised;
  the peer itself is still healthy;
* ``{"type": "warmed", "pid": p, "traces": [[name, scale, seed], ...]}``
  — the traces of a ``warm`` frame are loaded; ``traces`` lists every
  trace the peer holds (``"error": "..."`` added if loading raised).

Any bytes that do not decode as a well-formed frame raise
:class:`FrameError`; the scheduler treats that as a dead peer (a
desynchronized stream cannot be trusted again).  A clean EOF reads as
``None``.

The result payload itself is *advisory*: completed stats also land in
the content-addressed disk cache (workers share ``REPRO_CACHE_DIR``),
which is the durable exchange medium — a result frame lost to a corrupt
link or dead peer is recovered on reassignment as a cache hit.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from typing import Dict, Optional

#: frame length header: 4-byte big-endian unsigned.
HEADER = struct.Struct(">I")

#: refuse frames larger than this (a desynchronized stream read as a
#: length prefix would otherwise ask for gigabytes).
MAX_FRAME = 16 * 1024 * 1024


class FrameError(ValueError):
    """The byte stream does not contain a well-formed frame."""


def encode_frame(payload: Dict) -> bytes:
    """Serialize one frame: length header + compact JSON body."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame too large: {len(body)} bytes")
    return HEADER.pack(len(body)) + body


def _read_exact(stream, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(stream) -> Optional[Dict]:
    """Read one frame from a binary stream.

    Returns the decoded object, or ``None`` on a clean EOF (no bytes at
    all).  Anything else — a torn header, a short body, a length beyond
    :data:`MAX_FRAME`, bytes that are not JSON, JSON that is not an
    object — raises :class:`FrameError`.
    """
    header = _read_exact(stream, HEADER.size)
    if not header:
        return None
    if len(header) < HEADER.size:
        raise FrameError(f"truncated frame header ({len(header)} bytes)")
    (length,) = HEADER.unpack(header)
    if length == 0 or length > MAX_FRAME:
        raise FrameError(f"implausible frame length {length}")
    body = _read_exact(stream, length)
    if len(body) < length:
        raise FrameError(f"truncated frame body ({len(body)}/{length} bytes)")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"undecodable frame body: {exc}") from None
    if not isinstance(payload, dict):
        raise FrameError(f"frame body is {type(payload).__name__}, not an object")
    return payload


def transport_fault(data: bytes, **context) -> bytes:
    """``transport.garbage`` injection hook for outgoing frames.

    Same lazy-arming contract as ``runner._fire_fault``: a no-op dict
    probe unless the injector module is already loaded or
    ``$REPRO_FAULTS`` is set (the env form is what reaches worker
    subprocesses, which inherit the parent's environment).
    """
    module = sys.modules.get("repro.verify.faults")
    if module is None:
        if not os.environ.get("REPRO_FAULTS"):
            return data
        from ...verify import faults as module
    return module.mangle_bytes("transport.garbage", data, **context)
