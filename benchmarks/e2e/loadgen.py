"""Open-loop HTTP load from one process over a fixed set of keep-alive
connections.

Requests are due at scheduled offsets regardless of how fast the server
answers; a request whose connection is still busy waits for one, and its
latency is timed from when it was *due*.  Each record also notes whether
a connection was free at that instant, which separates the generator's
own lateness from queueing behind the server, and, given a ``cpu``
reader, the server's CPU seconds when the request was due and when its
answer was in.
"""

from __future__ import annotations

import asyncio
import gc
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: (offset seconds, method, path, body)
Request = Tuple[float, str, str, bytes]
#: The server's CPU seconds so far; True asks it to look for new
#: server processes first.
CpuReader = Callable[[bool], float]

SPIN_SECONDS = 0.002


class Record:
    __slots__ = ("scheduled", "sent", "done", "free", "status", "body",
                 "error", "cpu_due", "cpu_done")

    def __init__(self, scheduled: float, free: bool, cpu_due: float) -> None:
        self.scheduled = scheduled
        self.sent = scheduled
        self.done: Optional[float] = None
        self.free = free
        self.cpu_due = cpu_due
        self.cpu_done = cpu_due
        self.status = 0
        self.body = b""
        self.error: Optional[str] = None


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _drive(host: str, port: int, requests: Sequence[Request],
                 connections: int, grace: float, cpu: Optional[CpuReader]
                 ) -> Tuple[float, float, List[Optional[Record]]]:
    loop = asyncio.get_running_loop()
    queue: "asyncio.Queue[Optional[Tuple[int, Record]]]" = asyncio.Queue()
    records: List[Optional[Record]] = [None] * len(requests)
    idle = [0]

    async def connection() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                idle[0] += 1
                item = await queue.get()
                idle[0] -= 1
                if item is None:
                    return
                index, record = item
                _offset, method, path, body = requests[index]
                head = ("%s %s HTTP/1.1\r\nHost: %s\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: %d\r\n\r\n"
                        % (method, path, host, len(body)))
                record.sent = loop.time()
                try:
                    writer.write(head.encode("latin-1") + body)
                    await writer.drain()
                    record.status, record.body = await _read_response(reader)
                except (ConnectionError, asyncio.IncompleteReadError,
                        ValueError, IndexError) as error:
                    record.error = "%s: %s" % (type(error).__name__, error)
                    return
                finally:
                    record.done = loop.time()
                    if cpu is not None:
                        record.cpu_done = cpu(True)
        finally:
            writer.close()

    workers = [asyncio.ensure_future(connection())
               for _ in range(connections)]
    await asyncio.sleep(0.05)  # let the connections open
    start = loop.time() + 0.05
    wall_start = time.time() + (start - loop.time())
    for index, (offset, _method, _path, _body) in enumerate(requests):
        scheduled = start + offset
        # The loop's timers wake up to a millisecond late: sleep until
        # just before the send is due, then yield until it is.
        delay = scheduled - loop.time() - SPIN_SECONDS
        if delay > 0:
            await asyncio.sleep(delay)
        while loop.time() < scheduled:
            await asyncio.sleep(0)
        record = Record(scheduled, idle[0] > queue.qsize(),
                        cpu(False) if cpu is not None else 0.0)
        records[index] = record
        queue.put_nowait((index, record))
    for _ in workers:
        queue.put_nowait(None)
    done, pending = await asyncio.wait(workers, timeout=grace)
    for task in pending:
        task.cancel()
    await asyncio.gather(*workers, return_exceptions=True)
    for task in done:
        task.result()
    for record in records:
        if record is not None:
            # Shift onto offsets from the schedule start.
            record.scheduled -= start
            record.sent -= start
            if record.done is not None:
                record.done -= start
    return wall_start, start, records


def run(host: str, port: int, requests: Sequence[Request],
        connections: int = 2, grace: float = 60.0,
        cpu: Optional[CpuReader] = None
        ) -> Tuple[float, float, List[Record]]:
    """Send ``requests`` open-loop; returns the schedule start in
    wall-clock and in ``time.monotonic()`` time, and the records.

    Record times are seconds since the schedule start; a record whose
    ``done`` is None never got an answer within ``grace`` seconds of the
    last scheduled send.
    """
    # A cyclic-GC pass over the caller's heap (the generated network)
    # would delay sends; collect up front and pause it while driving.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        wall_start, start, records = asyncio.run(
            _drive(host, port, requests, connections, grace, cpu))
    finally:
        gc.enable()
        gc.unfreeze()
    return wall_start, start, [record for record in records
                               if record is not None]
