"""The instrument: a single-threaded asyncio HTTP load generator.

It carries its own client-side framing and imports nothing from ``repro``,
so no change in ``src/`` can speed up the measuring tool.  Open-loop phases
time each request from the instant it was *due*; the generator wakes
``WAKE_EARLY`` before that instant and yields until it arrives, because an
``asyncio.sleep`` alone lands up to a millisecond late (the selector rounds
its timeout up to whole milliseconds).
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ledger.traffic import PROBE_EVERY, Request, allegations_request, frame_request

WAKE_EARLY = 0.0015
#: beyond this many open requests an overloaded run queues in the generator
#: (visible as latency from due) instead of running out of descriptors
MAX_IN_FLIGHT = 256
#: how long a phase waits for its last responses before counting them failed
DRAIN_GRACE = 10.0

now = time.perf_counter


class Connection:
    """One non-blocking client socket speaking serial HTTP/1.1."""

    __slots__ = ("loop", "addr", "sock", "buf")

    def __init__(self, loop: asyncio.AbstractEventLoop, addr: Tuple[str, int]) -> None:
        self.loop = loop
        self.addr = addr
        self.sock: Optional[socket.socket] = None
        self.buf = bytearray()

    async def open(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        await self.loop.sock_connect(sock, self.addr)

    async def exchange(self, raw: bytes) -> Tuple[int, bytes, int]:
        """Send one request, read one response: (status, body, bytes read)."""
        await self.loop.sock_sendall(self.sock, raw)
        buf = self.buf
        while True:
            head_end = buf.find(b"\r\n\r\n")
            if head_end >= 0:
                break
            chunk = await self.loop.sock_recv(self.sock, 65536)
            if not chunk:
                raise ConnectionError("server closed before the response head")
            buf += chunk
        head = bytes(buf[:head_end]).lower()
        status = int(head[9:12])
        length = 0
        mark = head.find(b"content-length:")
        if mark >= 0:
            line_end = head.find(b"\r\n", mark)
            length = int(head[mark + 15: line_end if line_end >= 0 else len(head)])
        total = head_end + 4 + length
        while len(buf) < total:
            chunk = await self.loop.sock_recv(self.sock, 65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            buf += chunk
        body = bytes(buf[head_end + 4: total])
        del buf[:total]
        return status, body, total

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


@dataclass
class Reply:
    status: int
    body: bytes
    sent: float          # when the generator began acting on the request
    done: float
    connect_s: float     # 0.0 on a reused connection
    nbytes: int


class Transport:
    """How requests reach the gateway: a fresh connection each, or a pool of
    keep-alive connections that requests wait their turn for."""

    def __init__(self, addr: Tuple[str, int], keep_alive: bool, size: int) -> None:
        self.addr = addr
        self.keep_alive = keep_alive
        self.connections_opened = 0
        self._idle: "asyncio.Queue[Connection]" = asyncio.Queue()
        if keep_alive:
            loop = asyncio.get_running_loop()
            for _ in range(size):
                self._idle.put_nowait(Connection(loop, addr))

    async def request(self, raw: bytes) -> Reply:
        if self.keep_alive:
            conn = await self._idle.get()
            try:
                if conn.sock is None:      # first use, or replacing a broken one
                    await conn.open()
                    self.connections_opened += 1
                sent = now()
                status, body, nbytes = await conn.exchange(raw)
                return Reply(status, body, sent, now(), 0.0, nbytes)
            except BaseException:
                conn.close()
                raise
            finally:
                self._idle.put_nowait(conn)
        conn = Connection(asyncio.get_running_loop(), self.addr)
        sent = now()
        try:
            await conn.open()
            self.connections_opened += 1
            connected = now()
            status, body, nbytes = await conn.exchange(raw)
            return Reply(status, body, sent, now(), connected - sent, nbytes)
        finally:
            conn.close()

    def close(self) -> None:
        while not self._idle.empty():
            self._idle.get_nowait().close()


@dataclass
class Checks:
    """The output checks every run carries (see ledger/README.md)."""

    acked: Set[str] = field(default_factory=set)      # tokens of 201-answered writes
    probes: int = 0
    probe_misses: int = 0
    lost: int = 0
    duplicated: int = 0

    @property
    def violations(self) -> int:
        return self.probe_misses + self.lost + self.duplicated


@dataclass
class Phase:
    """What one timed phase measured; times are perf_counter seconds."""

    start: float = 0.0
    end: float = 0.0
    offered: int = 0
    ok: int = 0
    failed: int = 0                # non-2xx, broken connection, or never answered
    due: List[float] = field(default_factory=list)       # per 2xx sample
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    connect: List[float] = field(default_factory=list)
    lag: List[float] = field(default_factory=list)       # every offered request
    nbytes: int = 0
    cpu_s: float = 0.0             # the generator's own process CPU time


class Run:
    """One gateway under load: phases share the request stream and checks."""

    def __init__(self, transport: Transport, requests: Iterator[Request]) -> None:
        self.transport = transport
        self.requests = requests
        self.checks = Checks()
        self.extra_attempted = 0       # probes and sweep reads
        self.extra_failed = 0

    async def _one(self, phase: Phase, request: Request, due: Optional[float]) -> None:
        try:
            reply = await self.transport.request(request.raw)
        except (OSError, ValueError):
            phase.failed += 1
            return
        if due is not None:
            phase.lag.append(reply.sent - due)
        if not 200 <= reply.status < 300:
            phase.failed += 1
            return
        phase.ok += 1
        phase.due.append(reply.sent if due is None else due)
        phase.sent.append(reply.sent)
        phase.done.append(reply.done)
        phase.connect.append(reply.connect_s)
        phase.nbytes += reply.nbytes
        if request.token is not None:
            self.checks.acked.add(request.token)
            if len(self.checks.acked) % PROBE_EVERY == 0:
                await self._probe(request)

    async def _read_tokens(self, case: int) -> Optional[List[str]]:
        """One check read of a case's allegation tokens; ``None`` if it failed."""
        self.extra_attempted += 1
        try:
            reply = await self.transport.request(allegations_request(case).raw)
        except (OSError, ValueError):
            reply = None
        if reply is None or reply.status != 200:
            self.extra_failed += 1
            return None
        return [a.get("token") for a in json.loads(reply.body).get("allegations", [])]

    async def _probe(self, request: Request) -> None:
        """Read-your-writes: the acknowledged token must already be visible."""
        self.checks.probes += 1
        tokens = await self._read_tokens(request.case)
        if tokens is not None and request.token not in tokens:
            self.checks.probe_misses += 1

    async def open_loop(self, offsets: Sequence[float], duration: float) -> Phase:
        phase = Phase(offered=len(offsets))
        gate = asyncio.Semaphore(MAX_IN_FLIGHT)

        async def gated(request: Request, due: float) -> None:
            async with gate:
                await self._one(phase, request, due)

        tasks = []
        cpu0 = time.process_time()
        phase.start = now()
        for offset in offsets:
            due = phase.start + offset
            delay = due - now() - WAKE_EARLY
            if delay > 0:
                await asyncio.sleep(delay)
            while now() < due:
                await asyncio.sleep(0)
            tasks.append(asyncio.ensure_future(gated(next(self.requests), due)))
        remaining = phase.start + duration - now()
        if remaining > 0:
            await asyncio.sleep(remaining)
        phase.end = now()
        phase.cpu_s = time.process_time() - cpu0
        await self._drain(phase, tasks, DRAIN_GRACE)
        return phase

    async def closed_loop(self, callers: int, duration: float) -> Phase:
        phase = Phase()
        cpu0 = time.process_time()
        phase.start = now()
        deadline = phase.start + duration

        async def caller() -> None:
            while now() < deadline:
                phase.offered += 1
                await self._one(phase, next(self.requests), None)

        tasks = [asyncio.ensure_future(caller()) for _ in range(callers)]
        await self._drain(phase, tasks, duration + DRAIN_GRACE)
        phase.end = deadline
        phase.cpu_s = time.process_time() - cpu0
        return phase

    async def _drain(self, phase: Phase, tasks: List["asyncio.Future"],
                     timeout: float) -> None:
        if not tasks:
            return
        _done, pending = await asyncio.wait(tasks, timeout=timeout)
        for task in pending:
            task.cancel()
            phase.failed += 1
        await asyncio.gather(*tasks, return_exceptions=True)
        for task in tasks:
            if not task.cancelled() and task.exception() is not None:
                raise task.exception()

    async def preload(self, requests: Sequence[Request], callers: int) -> None:
        """Untimed set-up traffic; any failure aborts the run."""
        queue = list(reversed(requests))

        async def caller() -> None:
            while queue:
                request = queue.pop()
                reply = await self.transport.request(request.raw)
                if not 200 <= reply.status < 300:
                    raise RuntimeError(f"preload {request.path} answered {reply.status}")

        await asyncio.gather(*(caller() for _ in range(callers)))

    async def sweep(self, cases: int, callers: int) -> None:
        """Final check: every acknowledged token is present exactly once."""
        seen: Dict[str, int] = {}
        queue = list(range(cases))

        async def caller() -> None:
            while queue:
                for token in await self._read_tokens(queue.pop()) or ():
                    seen[token] = seen.get(token, 0) + 1

        await asyncio.gather(*(caller() for _ in range(callers)))
        self.checks.lost = sum(1 for token in self.checks.acked if token not in seen)
        self.checks.duplicated = sum(1 for count in seen.values() if count > 1)


async def fetch_json(addr: Tuple[str, int], path: str) -> dict:
    """One GET on its own connection (``/metrics``, ``/healthz``)."""
    conn = Connection(asyncio.get_running_loop(), addr)
    try:
        await conn.open()
        status, body, _ = await conn.exchange(frame_request("GET", path, keep_alive=False))
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)
