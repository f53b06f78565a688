"""HTTP load from one client process, open or closed loop.

An open-loop phase sends a fixed list of request bodies at a fixed rate:
request ``i`` is due at ``t0 + i / rate`` whatever happened before it.
At most ``threads`` requests are in flight, one per keep-alive
connection, so when the daemon falls behind, due requests wait in the
client.  That wait is the client-side backlog: it is charged to latency,
because each request is timed from when it was due, not from when it was
sent.  A closed-loop phase (``rate=None``) keeps every connection busy:
each sends its next request as soon as the last is answered, for a fixed
time, which measures how many requests the daemon completes per second.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from stats import MISS, send_lags

#: Statuses the daemon uses to refuse work it could not admit.
REFUSED = (429, 503)


@dataclass
class Phase:
    """Everything one phase observed, one entry per request."""

    name: str
    #: Requests per second, or None for a closed-loop phase.
    rate: Optional[float]
    due: List[float]
    free: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    #: When the request's last byte was handed to the kernel, and when
    #: the first byte of its response came back: the client's own work
    #: is ``[sent, written]`` and ``[answered, done]``.
    written: List[float] = field(default_factory=list)
    answered: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    #: Which of the phase's connections sent the request.
    conn: List[int] = field(default_factory=list)
    status: List[int] = field(default_factory=list)
    body: List[Optional[bytes]] = field(default_factory=list)
    #: Requests whose response failed an output check (indices).
    wrong: set = field(default_factory=set)

    @property
    def n(self) -> int:
        return len(self.due)

    def ok(self, i: int) -> bool:
        return self.status[i] == 200 and i not in self.wrong

    def latencies_ms(self) -> List[float]:
        """Due-to-done milliseconds; failures, refusals and wrong
        outputs are :data:`~stats.MISS`."""
        return [(self.done[i] - self.due[i]) * 1e3 if self.ok(i) else MISS
                for i in range(self.n)]

    def counts(self) -> dict:
        refused = sum(1 for s in self.status if s in REFUSED)
        failed = sum(1 for s in self.status if s != 200 and s not in REFUSED)
        succeeded = sum(1 for i in range(self.n) if self.ok(i))
        by_status: dict = {}
        for s in self.status:
            by_status[str(s)] = by_status.get(str(s), 0) + 1
        return {"sent": self.n, "succeeded": succeeded, "failed": failed,
                "refused": refused, "wrong": len(self.wrong),
                "by_status": by_status}

    def send_lags_ms(self) -> List[float]:
        return [lag * 1e3 for lag in send_lags(self.due, self.free,
                                              self.sent)]


class Connection:
    """A minimal HTTP/1.1 keep-alive client over one socket.

    Requests are sent as bytes framed by :func:`frame` and responses
    parsed by ``Content-Length`` only, so the generator adds as little as
    possible to the latency it measures.
    """

    def __init__(self, host: str, port: int, timeout: float):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.written = self.answered = 0.0

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("connection closed by the daemon")
        self.buffer += chunk

    def roundtrip(self, request: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(request)
        self.written = time.monotonic()
        self._fill()
        self.answered = time.monotonic()
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, body

    def close(self) -> None:
        self.sock.close()


def frame(path: str, body: bytes, method: str = "POST") -> bytes:
    """One complete request: request line, headers and body."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


def run_phase(name: str, host: str, port: int, bodies: Sequence[bytes],
              rate: Optional[float], threads: int = 2,
              timeout: float = 60.0, path: str = "/v1/explain",
              seconds: Optional[float] = None) -> Phase:
    """Send ``bodies`` open-loop at ``rate`` requests/second and return
    the :class:`Phase` record.  With ``rate=None`` the phase is closed
    loop instead: every connection sends the next body as soon as its
    last request is answered, until ``seconds`` have passed (or the
    bodies run out), and each request is due when it is sent.  The
    record then holds only the requests sent.  Response bodies are kept
    for the output checks."""
    n = len(bodies)
    closed = rate is None
    conns = [Connection(host, port, timeout) for _ in range(threads)]
    t0 = time.monotonic() + 0.02
    end = t0 + seconds if closed else math.inf
    phase = Phase(name, rate,
                  [0.0] * n if closed else [t0 + i / rate for i in range(n)],
                  free=[0.0] * n, sent=[0.0] * n, written=[0.0] * n,
                  answered=[0.0] * n, done=[0.0] * n, conn=[0] * n,
                  status=[0] * n, body=[None] * n)
    lock = threading.Lock()
    cursor = [0]

    def sender(k: int) -> None:
        conn = conns[k]
        if closed:
            time.sleep(max(0.0, t0 - time.monotonic()))
        while True:
            # Claimed under the lock, so the requests sent before the end
            # of a closed-loop phase are exactly the first ``cursor``.
            with lock:
                if time.monotonic() >= end:
                    i = n
                else:
                    i = cursor[0]
                    cursor[0] = min(n, i + 1)
            free = time.monotonic()
            if i >= n:
                break
            if closed:
                phase.due[i] = free
            wait = phase.due[i] - free
            if wait > 0:
                time.sleep(wait)
            phase.free[i] = free
            phase.conn[i] = k
            phase.sent[i] = time.monotonic()
            try:
                phase.status[i], phase.body[i] = conn.roundtrip(
                    frame(path, bodies[i]))
                phase.written[i] = conn.written
                phase.answered[i] = conn.answered
            except OSError:
                phase.status[i] = -1
                conn.close()
                try:
                    conn = Connection(host, port, timeout)
                except OSError:
                    pass
            phase.done[i] = time.monotonic()
        conn.close()

    workers = [threading.Thread(target=sender, args=(k,), daemon=True)
               for k in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    sent = cursor[0]
    for key in ("due", "free", "sent", "written", "answered", "done", "conn",
                "status", "body"):
        del getattr(phase, key)[sent:]
    return phase


def request(host: str, port: int, method: str, path: str,
            body: bytes = b"", timeout: float = 120.0) -> Tuple[int, bytes]:
    """One blocking request on a fresh connection: ``(status, bytes)``."""
    conn = Connection(host, port, timeout)
    try:
        return conn.roundtrip(frame(path, body, method))
    finally:
        conn.close()
