"""Socket load generators: one process, at most two connections.

Both loops only send pre-built request lines and stamp raw response
lines with their arrival time; parsing and checking happen after the
timed window, so the generator stays cheap next to the daemon it
drives on the same host.
"""

from __future__ import annotations

import json
import select
import socket
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: Seconds to wait for outstanding answers after the last send.
DRAIN_SECONDS = 10.0
#: Client connections of every load loop.
CONNECTIONS = 2
#: Seconds a closed loop runs before its measured window opens.
RAMP_SECONDS = 0.5


def request_line(request_id: int, body: bytes) -> bytes:
    """A request wire line: ``body`` is the request object's JSON with
    the outer braces stripped and without an ``id``."""
    return b'{"id":%d,%s}\n' % (request_id, body)


def request_body(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()[1:-1]


class Stream:
    """One client connection: buffered writes, line-split reads."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._tail = b""
        self.closed = False

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_lines(self) -> List[bytes]:
        """The complete lines now readable (call when select says the
        socket is readable)."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            self.closed = True
            return []
        lines = (self._tail + chunk).split(b"\n")
        self._tail = lines.pop()
        return lines

    def close(self) -> None:
        self.sock.close()


class Exchange:
    """What one load run sent and received.

    ``sent[i]`` is when request ``i`` left (``None`` if never sent);
    ``replies`` holds ``(arrival time, raw line)`` in arrival order.
    """

    def __init__(self, count: int) -> None:
        self.sent: List[Optional[float]] = [None] * count
        self.replies: List[Tuple[float, bytes]] = []
        self.window: Tuple[float, float] = (0.0, 0.0)


def _readable(streams: Sequence[Stream], timeout: float):
    ready, _, _ = select.select([s for s in streams if not s.closed],
                                [], [], max(0.0, timeout))
    return ready


def closed_loop(address, make_line: Callable[[int], bytes],
                seconds: float, window: int) -> Exchange:
    """Each connection keeps ``window`` requests in flight and sends a
    new one per answer, until ``RAMP_SECONDS + seconds`` have passed.
    The measured window is ``[start + RAMP_SECONDS, start +
    RAMP_SECONDS + seconds]``."""
    streams = [Stream(address) for _ in range(CONNECTIONS)]
    exchange = Exchange(0)
    next_id = 0

    def send(stream: Stream, count: int) -> None:
        nonlocal next_id
        now = time.perf_counter()
        lines = []
        for _ in range(count):
            exchange.sent.append(now)
            lines.append(make_line(next_id))
            next_id += 1
        stream.send(b"".join(lines))

    start = time.perf_counter()
    exchange.window = (start + RAMP_SECONDS,
                       start + RAMP_SECONDS + seconds)
    stop_at = exchange.window[1]
    try:
        for stream in streams:
            send(stream, window)
        outstanding = window * CONNECTIONS
        drain_until = stop_at + DRAIN_SECONDS
        while outstanding and time.perf_counter() < drain_until:
            for stream in _readable(streams, 0.5):
                lines = stream.read_lines()
                now = time.perf_counter()
                exchange.replies.extend((now, line) for line in lines)
                outstanding -= len(lines)
                if lines and now < stop_at:
                    send(stream, len(lines))
                    outstanding += len(lines)
            if all(stream.closed for stream in streams):
                break
    finally:
        for stream in streams:
            stream.close()
    return exchange


def open_loop(address, make_line: Callable[[int], bytes],
              due: Sequence[float]) -> Exchange:
    """Send request ``i`` at ``start + due[i]`` whatever the answers
    do (alternating connections), then wait for the stragglers.  The
    measured window is ``[start, start + due[-1]]``."""
    streams = [Stream(address) for _ in range(CONNECTIONS)]
    exchange = Exchange(len(due))
    start = time.perf_counter()
    exchange.window = (start, start + (due[-1] if due else 0.0))
    index = 0
    answered = 0
    try:
        while True:
            now = time.perf_counter() - start
            pending: List[List[bytes]] = [[] for _ in streams]
            while index < len(due) and due[index] <= now:
                exchange.sent[index] = start + now
                pending[index % CONNECTIONS].append(make_line(index))
                index += 1
            for stream, lines in zip(streams, pending):
                if lines:
                    stream.send(b"".join(lines))
            if index < len(due):
                timeout = due[index] - (time.perf_counter() - start)
            elif answered >= len(due) or \
                    now > due[-1] + DRAIN_SECONDS:
                break
            else:
                timeout = 0.1
            for stream in _readable(streams, timeout):
                lines = stream.read_lines()
                arrived = time.perf_counter()
                exchange.replies.extend((arrived, line) for line in lines)
                answered += len(lines)
            if all(stream.closed for stream in streams):
                break
    finally:
        for stream in streams:
            stream.close()
    return exchange


def single_request(address, line: bytes, timeout: float = 20.0
                   ) -> Optional[bytes]:
    """Send one request line on a fresh connection; its answer line,
    or ``None`` when the connection closed or timed out first."""
    stream = Stream(address)
    try:
        stream.send(line)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not _readable([stream], deadline - time.monotonic()):
                continue
            lines = stream.read_lines()
            if lines:
                return lines[0]
            if stream.closed:
                return None
        return None
    except OSError:
        return None
    finally:
        stream.close()
