"""The service workload's request log and its one closed-loop client.

The log is generated from the benchmark's seed; the daemon only ever
sees the requests.  One keep-alive connection sends each request after
the previous answer arrived, so the daemon is never offered more than
one request at a time and latency does not depend on client scheduling.
Between requests, while the daemon is idle, the client probes the host's
speed (:mod:`perfbench.probe`); the probes are not part of any latency.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from .probe import TICK_S, HostSpeed

#: requests per distinct point: the first is a miss, the rest memo hits.
REPEATS = 18


class Answer(NamedTuple):
    #: ``time.monotonic()`` when the request was sent.
    start: float
    latency_s: float
    status: int
    body: bytes


def request_log(seed: int, points: List[Dict]) -> List[Dict]:
    """Every point ``REPEATS`` times, in an order fixed by ``seed``."""
    log = [point for point in points for _ in range(REPEATS)]
    random.Random(seed).shuffle(log)
    return log


class Client:
    """One HTTP/1.1 keep-alive connection to the daemon."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def close(self) -> None:
        self.conn.close()

    def request(self, method: str, path: str, body: Optional[Dict] = None) -> Answer:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        stamp = time.monotonic()
        start = time.perf_counter()
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        return Answer(stamp, time.perf_counter() - start, response.status, raw)

    def replay(self, log: List[Dict], speed: Optional[HostSpeed] = None) -> List[Answer]:
        """Send the log; with ``speed``, probe the host every tick between requests."""
        answers: List[Answer] = []
        last = time.monotonic()
        for point in log:
            if speed is not None and time.monotonic() - last >= TICK_S:
                speed.probe()
                last = time.monotonic()
            answers.append(self.request("POST", "/run", point))
        return answers

    def headline(self, scale: int, poll_s: float = 0.01) -> Tuple[Answer, Answer]:
        """Submit one ``/headline`` job and poll it to a terminal state.

        Returns the submit answer and the last ``GET /jobs/<id>`` answer
        (the submit answer again if it was not a ``202``).
        """
        submitted = self.request("POST", "/headline", {"scale": scale})
        if submitted.status != 202:
            return submitted, submitted
        job_id = json.loads(submitted.body)["job"]["id"]
        while True:
            answer = self.request("GET", f"/jobs/{job_id}")
            state = json.loads(answer.body).get("job", {}).get("state")
            if answer.status != 200 or state in ("done", "failed", "cancelled"):
                return submitted, answer
            time.sleep(poll_s)


def wait_ready(port: int, alive, timeout: float = 120.0) -> bool:
    """Block until ``GET /status`` answers 200; False if the daemon died first.

    A connection made while the daemon is still warming its pool is
    accepted by the kernel and answered once the daemon starts serving,
    so the answer marks the moment the daemon is ready for work.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and alive():
        try:
            client = Client(port, timeout=max(1.0, deadline - time.monotonic()))
            try:
                return client.request("GET", "/status").status == 200
            finally:
                client.close()
        except (ConnectionRefusedError, ConnectionResetError, http.client.RemoteDisconnected):
            time.sleep(0.005)
    return False
