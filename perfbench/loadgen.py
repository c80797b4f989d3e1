"""Load generator for ``repro serve``: one process, one asyncio thread.

It opens two connections to the server: one subscribes to warnings, the
other sends ``ingest`` frames.  Set-up sends a backlog closed-loop (at
most ``window`` frames unacknowledged) and then one ``advance`` frame;
the timed phase sends frames open-loop on a schedule fixed up front, so
every latency is measured from the frame's due time, not its send time.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field


@dataclass
class LoadResult:
    setup_done: float = 0.0
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    acked: dict[int, float] = field(default_factory=dict)
    warnings: list[tuple[float, dict]] = field(default_factory=list)


class _Ingest:
    """The sending connection: pairs replies with frames by ``seq``."""

    def __init__(self, reader, writer, result: LoadResult, window: int) -> None:
        self.reader = reader
        self.writer = writer
        self.result = result
        self.credit = asyncio.Semaphore(window)
        self.unanswered: set[int] = set()
        self.backlog: set[int] = set()
        self.all_answered = asyncio.Event()
        self.replies: dict[int, asyncio.Future] = {}

    async def read(self) -> None:
        result = self.result
        while True:
            line = await self.reader.readline()
            if not line:
                return
            now = time.monotonic()
            frame = json.loads(line)
            seq = frame.get("seq")
            waiter = self.replies.pop(seq, None)
            if waiter is not None:
                if not waiter.done():
                    waiter.set_result(frame)
                continue
            # Any other reply (``overloaded``, ``error``) leaves the event
            # unacked, which counts it as failed.
            if frame.get("type") == "ack":
                result.acked[seq] = now
            if seq in self.backlog:
                self.backlog.discard(seq)
                self.credit.release()
            self.unanswered.discard(seq)
            if not self.unanswered:
                self.all_answered.set()

    async def request(self, frame: bytes, seq: int) -> dict:
        waiter = asyncio.get_running_loop().create_future()
        self.replies[seq] = waiter
        self.writer.write(frame)
        await self.writer.drain()
        return await waiter

    def track(self, seq: int) -> None:
        self.unanswered.add(seq)
        self.all_answered.clear()


async def _subscribe(host: str, port: int, result: LoadResult):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b'{"type":"subscribe","seq":0}\n')
    await writer.drain()
    json.loads(await reader.readline())  # the subscribe ack

    async def pump() -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.monotonic()
            frame = json.loads(line)
            if frame.get("type") == "warning":
                result.warnings.append((now, frame["warning"]))

    return writer, asyncio.get_running_loop().create_task(pump())


async def drive(
    host: str,
    port: int,
    backlog: list[bytes],
    advance: bytes,
    timed: list[bytes],
    rate: float,
    flush: bytes,
    expected_warnings: int,
    window: int = 256,
    answer_timeout: float = 60.0,
) -> LoadResult:
    """Run set-up, then the timed phase; ``timed`` must not be empty.

    Frames carry consecutive ``seq`` numbers: ``backlog`` from 1, then
    ``advance``, then ``timed``, then ``flush``.
    """
    result = LoadResult()
    sub_writer, pump = await _subscribe(host, port, result)
    reader, writer = await asyncio.open_connection(host, port)
    ingest = _Ingest(reader, writer, result, window)
    read_task = asyncio.get_running_loop().create_task(ingest.read())
    try:
        seq = 0
        for frame in backlog:
            seq += 1
            await ingest.credit.acquire()
            ingest.backlog.add(seq)
            ingest.track(seq)
            writer.write(frame)
        await writer.drain()
        await asyncio.wait_for(ingest.all_answered.wait(), answer_timeout)
        seq += 1
        await asyncio.wait_for(ingest.request(advance, seq), answer_timeout)
        result.setup_done = time.monotonic()

        start = time.monotonic() + 0.05
        step = 1.0 / rate
        for i, frame in enumerate(timed):
            due = start + i * step
            now = time.monotonic()
            if now < due:
                await asyncio.sleep(due - now)
                now = time.monotonic()
            seq += 1
            ingest.track(seq)
            writer.write(frame)
            result.due.append(due)
            result.sent.append(now)
            if writer.transport.get_write_buffer_size() > 65536:
                await writer.drain()
        await writer.drain()
        try:
            await asyncio.wait_for(ingest.all_answered.wait(), answer_timeout)
        except asyncio.TimeoutError:
            pass  # unanswered events count as failed
        seq += 1
        await asyncio.wait_for(ingest.request(flush, seq), answer_timeout)
        # Pushed warnings may trail the flush ack by a few frames.
        deadline = time.monotonic() + 10.0
        while len(result.warnings) < expected_warnings and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        await asyncio.sleep(0.2)
        return result
    finally:
        for w in (writer, sub_writer):
            w.close()
        for task in (read_task, pump):
            task.cancel()
        await asyncio.gather(read_task, pump, return_exceptions=True)
