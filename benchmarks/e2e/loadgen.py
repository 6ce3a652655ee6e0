"""Load generator of the served workloads: one asyncio thread, two connections.

Requests travel over at most two keep-alive HTTP/1.1 connections, one
request in flight per connection, so the load never needs more threads or
sockets than the two cores of the reference box.

- :func:`open_loop` sends on a seeded Poisson schedule whatever the server
  does.  Each request is timed from when it was *due*: a request that waits
  for a free connection counts that wait as latency (backlog), and the
  generator's own timer lateness is recorded per request.
- :func:`closed_loop` keeps both connections busy back to back, which is
  the highest request rate two connections can put through the server.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import itertools
import os
import time
from dataclasses import dataclass

HOST = "127.0.0.1"
CONNECTIONS = 2

#: how long before a due time the generator stops sleeping and starts
#: yielding to the loop; asyncio's selector rounds sleeps up to whole ms
_SPIN_S = 0.0015


def post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


class Connection:
    """One keep-alive connection carrying one request at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection(HOST, port))

    async def request(self, raw: bytes) -> tuple[int, bytes]:
        self.writer.write(raw)
        head = await self.reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return int(head[9:12]), await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


@dataclass
class StepRecord:
    """Per-request timings (``perf_counter`` seconds) and replies of a step."""

    ids: list[str]
    due: list[float]
    sent: list[float]
    done: list[float]
    lateness: list[float]
    status: list[int]
    body: list[bytes]

    def latencies_ms(self) -> list[float]:
        return [(d - u) * 1e3 for d, u in zip(self.done, self.due)]


async def _wait_until(deadline: float) -> None:
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        await asyncio.sleep(remaining - _SPIN_S if remaining > 2 * _SPIN_S else 0)


async def open_loop(port: int, ids: list[str], raws: list[bytes], offsets) -> StepRecord:
    """Send ``raws[i]`` at ``offsets[i]`` seconds after the start."""
    n = len(raws)
    rec = StepRecord(list(ids), [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [0] * n, [b""] * n)
    conns = [await Connection.open(port) for _ in range(CONNECTIONS)]
    queue: asyncio.Queue[int | None] = asyncio.Queue()

    async def sender(conn: Connection) -> None:
        while (i := await queue.get()) is not None:
            rec.sent[i] = time.perf_counter()
            rec.status[i], rec.body[i] = await conn.request(raws[i])
            rec.done[i] = time.perf_counter()

    senders = [asyncio.create_task(sender(c)) for c in conns]
    start = time.perf_counter() + 0.05
    for i, offset in enumerate(offsets):
        due = start + float(offset)
        await _wait_until(due)
        rec.due[i] = due
        rec.lateness[i] = time.perf_counter() - due
        queue.put_nowait(i)
    for _ in conns:
        queue.put_nowait(None)
    await asyncio.gather(*senders)
    for conn in conns:
        await conn.close()
    return rec


async def closed_loop(
    port: int, raws: list[bytes], seconds: float
) -> tuple[list[bool], float]:
    """Cycle through ``raws`` on both connections for ``seconds``.

    Returns, per completed request, whether it answered 200 with
    ``ok: true``, and the elapsed time from the first send to the last reply.
    """
    conns = [await Connection.open(port) for _ in range(CONNECTIONS)]
    succeeded: list[bool] = []
    cursor = itertools.count()
    start = time.perf_counter()
    stop = start + seconds
    last = start

    async def worker(conn: Connection) -> None:
        nonlocal last
        while time.perf_counter() < stop:
            status, body = await conn.request(raws[next(cursor) % len(raws)])
            succeeded.append(status == 200 and b'"ok":true' in body)
            last = time.perf_counter()

    await asyncio.gather(*(worker(c) for c in conns))
    for conn in conns:
        await conn.close()
    return succeeded, last - start


@contextlib.contextmanager
def elevated():
    """Schedule the generator ahead of the server while it drives load.

    On two cores the server's solver threads can occupy both, and a
    generator woken behind them sends late.  The lowest real-time priority
    lets it run as soon as a request is due; without the privilege it falls
    back to a raised nice value, then to nothing.  Yields the policy used.
    """
    nice = os.getpriority(os.PRIO_PROCESS, 0)
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        mode = "fifo"
    except OSError:
        try:
            os.setpriority(os.PRIO_PROCESS, 0, nice - 10)
            mode = "nice"
        except OSError:
            mode = "default"
    try:
        yield mode
    finally:
        if mode == "fifo":
            os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
        elif mode == "nice":
            os.setpriority(os.PRIO_PROCESS, 0, nice)


def get(port: int, path: str, timeout: float = 5.0) -> tuple[int, bytes]:
    """A blocking GET on a fresh connection (health and metrics scrapes)."""
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()
