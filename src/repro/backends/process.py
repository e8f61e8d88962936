"""The process execution backend: every handler in its own OS process.

This is the paper's Section 7 future work made real: the private queue is
transport-agnostic, so the queue-of-queues protocol can run over sockets —
and once it does, handlers can live in separate processes and execute with
true multi-core parallelism instead of time-slicing one GIL.

Division of labour:

* **clients stay in the parent process** and run completely unmodified
  client code: reservations, sync coalescing, wait conditions, the
  lock-based protocol variants — all of it is the shared machinery of
  :mod:`repro.core.client`.  What a client *is* is the backend's other
  axis: OS threads by default (``loops=0``), or — ``loops>=1``, the
  ``process+async`` configuration — also coroutine tasks on a
  :class:`~repro.backends.async_.LoopPool`, so tens of thousands of
  concurrent clients drive handlers on real cores.
* **one wire-queue protocol, two drivers**: a client's private queue is a
  :class:`~repro.queues.wire_queue.WireQueueCore` (tickets, journal,
  counters, stale-reply debt, replay — no I/O) driven either by the
  blocking :class:`ProcessPrivateQueue` (thread clients) or by the
  continuation-based :class:`AsyncProcessPrivateQueue` (coroutine clients,
  whose reader task resolves reply continuations so the event loop never
  blocks on the socket).  The backend picks per queue, from the thread that
  asks, so both client kinds coexist with identical counters.
* **a logged call is an append** to the core's open burst, which leaves as
  one ``calls`` frame (:mod:`repro.queues.wire_queue`); whatever the core
  hands out, the driver writes at once, in one write.
* **a query is one round trip**: a packaged ``query`` frame or a
  client-executed body as an ``invoke`` frame.  An unsynced one sends no
  ``sync`` first — the worker serves a block's frames in order, so the body
  is its own sync and its reply is release and result both — and both
  drivers split it into issue (journal, feed, flush) and wait (the reply).
  Only an explicit ``sync()`` barrier still sends a ``sync`` frame.
* **each handler becomes a socket server in a worker process**
  (:mod:`repro.backends.process_worker`): one
  :class:`~repro.queues.socket_queue.FrameStream` connection per (client,
  handler) pair is that client's private queue, and a real
  :class:`~repro.core.handler.Handler` there drains them with the same loop
  as the in-memory backends, its queue-of-queues serving blocks strictly in
  *ticket* order.
* **tickets preserve the reasoning guarantees**: the parent's
  ``QueueOfQueues`` issues each reservation its ticket at ``qoq.enqueue``
  time — i.e. under the very spinlocks that make multi-handler reservations
  atomic (Section 3.3) — and the worker's hands blocks out in ticket order,
  so the FIFO-of-private-queues service order is bit-identical to the
  shared-memory backends no matter how frames race on the wire.
* **counters aggregate across the process boundary**: every sync release /
  query result piggybacks the worker's non-zero counters, and the close
  report carries the final ones; the parent folds the deltas into the
  runtime's :class:`~repro.util.counters.Counters`, so ``rt.stats()`` shows
  ``calls_executed`` et al. exactly as the in-memory backends do.
* **a dead worker is a stall, not a loss**: every data frame is journaled
  before it is sent, and the same replies carry the worker's periodic
  *checkpoints* (a pickle of the handler's objects, counters and failures,
  taken between two blocks).  One sans-IO
  :class:`~repro.queues.wire_queue.HandlerJournal` per handler keeps the
  newest checkpoint and only the blocks above its ticket, so a dead
  worker's handler is restored on a replacement from the last checkpoint
  plus the tail — bounded memory, bounded recovery time.  This backend has
  no fail-stop mode.

What travels is the request as it is: its ``fn`` — a feature name, or a
callable for ``apply``/``compute`` — and its ``args``/``kwargs``.  The codec
decides fidelity: ``pickle`` (the default; both ends are processes we
spawned) round-trips tuples, sets, exceptions and importable callables;
``json`` restricts arguments and results to JSON types, ships names only,
and is wire-portable.  Select with ``QsRuntime(backend="process")``,
``REPRO_BACKEND=process[:nproc][:codec]`` or ``repro --backend process``;
``nproc`` caps worker processes (handlers are assigned round-robin), the
default is one process per handler.  The coroutine-client configuration is
``process+async[:nproc[:nloops[:codec]]]`` (alias ``hybrid``).

Known limits (documented in ``docs/backends.md``): handler objects cannot
hold backend-unaware references into the parent (no shipping the runtime or
live ``SeparateRef``s as call arguments), and handler-side trace events are
not recorded in the parent's tracer.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import pickle
import secrets
import socket
import subprocess
import sys
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.backends.async_ import LoopPool
from repro.backends.base import ExecutionBackend, ThreadClients
from repro.errors import ScoopError
from repro.queues.codec import get_codec
from repro.queues.private_queue import ResultBox, SyncRequest
from repro.queues.qoq import QueueOfQueues
from repro.queues.socket_queue import AsyncFrameStream, FrameStream, SocketQueueClosed
from repro.queues.wire_queue import HandlerJournal, RemoteHandle, WireQueueCore

#: worker bootstrap, kept import-only so no parent state is assumed
_WORKER_CMD = "from repro.backends.process_worker import main; main()"

#: how long a thread client waits for one sync/query reply before raising —
#: the process-backend analogue of a hung handler (tests lower it)
REPLY_TIMEOUT = 300.0


class RemoteHandlerError(ScoopError):
    """An asynchronous call raised inside a handler process.

    Carries the remote ``repr`` and traceback text (the exception object
    itself stayed in the worker, exactly like the in-memory backends keep
    failures on the handler until shutdown).
    """

    def __init__(self, description: str, remote_traceback: str = "") -> None:
        super().__init__(description)
        self.remote_traceback = remote_traceback


class _WorkerProcess:
    """One spawned worker child: its control channel and data address."""

    def __init__(self, proc: subprocess.Popen, control: FrameStream,
                 data_addr: "tuple[str, int]") -> None:
        self.proc = proc
        self.control = control
        self.data_addr = data_addr
        self.handler_names: List[str] = []
        self._lock = threading.Lock()

    def request(self, op: Dict[str, Any], timeout: float = 60.0) -> Dict[str, Any]:
        """Send one control op and wait for its reply (strict req/rep)."""
        with self._lock:
            self.control.send(op)
            try:
                reply = self.control.recv(timeout=timeout)
            except SocketQueueClosed:
                reply = None
        if reply is None:
            raise ScoopError(
                f"worker process {self.proc.pid} did not answer control op "
                f"{op.get('op')!r} (it may have crashed)")
        if not reply.get("ok", False):
            raise ScoopError(
                f"worker process {self.proc.pid} rejected {op.get('op')!r}: "
                f"{reply.get('error')}\n{reply.get('traceback', '')}")
        return reply

    def stop(self, timeout: float) -> None:
        try:
            self.request({"op": "exit"}, timeout=min(timeout, 10.0))
        except ScoopError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            self.proc.kill()
            self.proc.wait(timeout=5.0)
        self.control.close()


class _RemoteQoQ(QueueOfQueues):
    """Parent-side stand-in for a remote handler's queue-of-queues.

    ``Client.reserve`` enqueues into it as into the in-memory one, which
    issues and counts the tickets; filing a queue only records its ticket
    for the block's ``open`` frame.
    """

    def __init__(self, backend: "ProcessBackend", handler: Any) -> None:
        super().__init__(handler.counters)
        self.backend = backend
        self.handler = handler
        #: the worker's drain report, filled in by :meth:`close`
        self.report: Optional[Dict[str, Any]] = None

    def file(self, ticket: int, private_queue: "ProcessPrivateQueue") -> None:
        # Multi-handler reservations call this while holding every reserved
        # handler's spinlock (Section 3.3), so the open frame (and a
        # first-use connect) is deferred to the block's first request,
        # keeping socket I/O out of the critical section.
        private_queue.open_block(ticket)

    def close(self) -> None:
        if self.closed:
            return
        # a worker that died before (or while) draining is failed over — the
        # replacement replays the journal above its checkpoint — and re-asked there
        self.report = self.backend._control_request(
            self.handler.name,
            {"op": "close", "handler": self.handler.name, "tickets": super().close()})


def _unwrap(value: Any, error: Optional[BaseException]) -> Any:
    """A classified reply as the call it answers would have ended."""
    if error is not None:
        raise error
    return value


def _settle(box: ResultBox, value: Any, error: Optional[BaseException]) -> None:
    """Fill a packaged query's result box from a classified reply."""
    if error is not None:
        box.set_error(error)
    else:
        box.set(value)


class _WireQueue:
    """What the two wire-queue drivers share: the queue surface over a core.

    Mirrors the client-side surface of
    :class:`~repro.queues.private_queue.PrivateQueue` (``enqueue_call`` /
    ``enqueue_sync`` / ``enqueue_query`` / ``enqueue_end``, the query path
    ``enqueue_query_sync`` / ``invoke``, the ``synced`` flag, reuse across
    blocks) with identical counter accounting, but every
    request becomes frames of a :class:`~repro.queues.wire_queue.WireQueueCore`.
    A driver adds the I/O: ``_send`` (the frames the core hands out, in one
    write) and how a reply is waited for.
    """

    #: always filed at reservation: the worker's ``served`` watermark is not
    #: visible here, so a query never skips its round trip on an idle handler
    pending_qoq = None

    def __init__(self, backend: "ProcessBackend", handler: Any,
                 worker: _WorkerProcess, counters: Any) -> None:
        self.backend = backend
        self.handler = handler
        self.worker = worker
        self.core = WireQueueCore(backend, handler, counters, backend.journal(handler.name))
        self.synced = False
        self.client_name: Optional[str] = None
        self.closed_by_client = False
        self.block_id: Optional[int] = None
        self._stream: Any = None

    def open_block(self, ticket: int) -> None:
        """Record this block's FIFO position (called by the qoq façade)."""
        self.core.open_block(ticket, self.block_id)

    def enqueue_call(self, request: Any) -> None:
        self.synced = False
        # the call joins the core's open burst; only a full burst is handed
        # out, and it leaves at once so the worker starts on it
        frames = self.core.call(request)
        if frames:
            self._send(frames)

    def enqueue_end(self) -> None:
        self.closed_by_client = True
        self.synced = False
        self._send(self.core.end())

    def reset_for_reuse(self) -> None:
        self.synced = False
        self.closed_by_client = False
        self.block_id = None

    def close(self) -> None:
        """Drop the connection: the owning client will not use it again.

        (The continuation driver's reader takes the EOF of a stream that is
        no longer the queue's as "closed", not as a dead worker.)
        """
        stream, self._stream = self._stream, None
        if stream is not None:
            self.backend.unregister_stream(stream)
            stream.close()

    def __len__(self) -> int:
        return 0  # requests live on the wire / in the worker, never here

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"{type(self).__name__}(handler={self.handler.name!r}, "
                f"synced={self.synced}, connected={self._stream is not None})")


class ProcessPrivateQueue(_WireQueue):
    """The blocking driver: a thread client's queue over a ``FrameStream``.

    "Issue, flush, ``recv``, classify": replies are read synchronously by
    the owning client thread — an SPSC channel needs no demultiplexer.  A
    barrier ``sync`` and a packaged query read theirs before returning; an
    unsynced client-executed query only *issues* (journal, feed, flush) and
    leaves the read to whoever waits for it.  A dead worker is noticed
    inline (a failed write, the delivery probe after a flush, EOF while
    waiting) and failed over before the operation returns.
    """

    def _connect(self) -> FrameStream:
        stream = self._dial()
        # hello stays an eager send: the worker's registration window is
        # bounded (10 s), and a connection is made once then reused across
        # blocks — only a block's frames are worth coalescing
        stream.send(self.core.hello(self.client_name))
        return stream

    def _dial(self) -> FrameStream:
        sock = socket.create_connection(self.worker.data_addr, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        stream = self._stream = FrameStream(sock, self.backend.codec)
        self.backend.register_stream(stream)
        return stream

    def _send(self, frames: List[Dict[str, Any]]) -> None:
        """Ship already-journaled frames in one ``sendall``; fail over on a dead worker.

        No retry after a reconnect: the replay re-sent the whole block,
        these frames included.
        """
        try:
            stream = self._stream or self._connect()
            for frame in frames:
                stream.feed(frame)
            if stream.flush():
                self._sent(stream, frames)
        except (OSError, SocketQueueClosed):
            self._failover_reconnect()

    def _sent(self, stream: FrameStream, frames: List[Dict[str, Any]]) -> None:
        """Account for a burst that left — unless it went to a dead worker.

        A whole coalesced block can leave in *one* ``sendall``, and a
        sendall into a freshly killed worker's socket succeeds (the kernel
        buffers it before the RST lands).  A block that contains no reply
        wait would then complete without anyone noticing the loss — and
        its ticket becomes a gap that wedges the replacement worker's
        in-order drain forever.  The peer's FIN is already queued locally
        by then, so probing for it turns the silent loss into the normal
        failover path, which replays the journaled block.
        """
        if stream.peer_closed():
            raise SocketQueueClosed("worker closed while a burst was in flight")
        self.core.sent(frames)

    def _failover_reconnect(self) -> None:
        """Re-establish this queue on the dead worker's replacement.

        Declares the worker failed (idempotent; first caller wins), connects
        to wherever the handler was re-pinned, and sends the core's replay
        sequence frame by frame.
        """
        last_error: Optional[BaseException] = None
        for _ in range(2):  # the replacement itself may die mid-replay
            try:
                self.backend.worker_failed(self.worker)
                self.worker = self.backend._worker_for(self.handler.name)
                self.close()
                stream = self._dial()
                for frame in self.core.replay(self.client_name):
                    stream.send(frame)
                # the replay itself is fire-and-forget: make sure it did not
                # just vanish into a replacement that died mid-replay
                if stream.peer_closed():
                    raise SocketQueueClosed("replacement worker closed mid-replay")
                return
            except (OSError, SocketQueueClosed, ScoopError) as exc:
                last_error = exc
        raise ScoopError(
            f"handler {self.handler.name!r} lost its worker process and failover "
            f"could not re-establish the block") from last_error

    def _await_reply(self, what: str) -> Tuple[Any, Optional[BaseException]]:
        while True:
            try:
                reply = self._stream.recv(timeout=REPLY_TIMEOUT)
            except (SocketQueueClosed, OSError):
                # the worker died with our reply: fail over and let the
                # replayed block regenerate it (minus the stale ones)
                self._failover_reconnect()
                continue
            if reply is None:
                raise ScoopError(
                    f"no {what} reply from handler {self.handler.name!r} within "
                    f"{REPLY_TIMEOUT}s")
            outcome = self.core.classify(reply)
            if outcome is not None:
                return outcome

    def enqueue_sync(self, request: SyncRequest) -> SyncRequest:
        self._send(self.core.sync())
        self._await_reply("sync")  # blocks until the drain reaches the marker
        request.fire()
        return request

    def enqueue_query(self, request: Any) -> ResultBox:
        if request.result is None:
            request.result = ResultBox()
        self.synced = False
        self._send(self.core.query(request))
        _settle(request.result, *self._await_reply("query"))
        return request.result

    def enqueue_query_sync(self, handle: Any, fn: Any, args: tuple,
                           kwargs: dict) -> SyncRequest:
        """Ship an unsynced query's body as its own sync; the read is the waiter's."""
        self._send(self.core.invoke(handle, fn, args, kwargs, carries_sync=True))
        release = _ReadOnWait(self)
        release.request = SyncRequest(release=release)
        return release.request

    def invoke(self, handle: Any, fn: Any, args: tuple, kwargs: dict) -> Any:
        """Run a client-executed query body on the (synced) remote handler."""
        self._send(self.core.invoke(handle, fn, args, kwargs))
        return _unwrap(*self._await_reply("invoke"))


class _ReadOnWait:
    """The release of a query in flight on the blocking driver.

    No reader thread fires an event there: waiting for the release *is*
    reading the reply, on the waiter's thread.  Nothing else was sent to the
    handler since (``Client._still_pending``), so the next genuine
    reply is that query's; one abandoned with its block is never read here
    (the core books it as stale debt, :meth:`WireQueueCore.end`).
    """

    __slots__ = ("queue", "request")

    def __init__(self, queue: ProcessPrivateQueue) -> None:
        self.queue = queue
        self.request: Optional[SyncRequest] = None

    def wait(self, timeout: Optional[float] = None) -> bool:
        request, self.request = self.request, None  # waited for once; no cycle left
        request.outcome = self.queue._await_reply("query")
        return True


class AsyncProcessPrivateQueue(_WireQueue):
    """The continuation driver: a coroutine client's queue over an
    ``AsyncFrameStream``.

    "Issue, flush, append a continuation": no call ever blocks the event
    loop.  Sends buffer into the stream (connected lazily by a reader task)
    and every reply wait is a continuation the reader resolves in arrival
    order — the wire stays a strict SPSC channel, so FIFO continuations
    *are* the demultiplexer.  A dead worker is noticed by the reader task,
    which is therefore also the delivery probe.
    """

    def __init__(self, backend: "ProcessBackend", handler: Any,
                 worker: _WorkerProcess, counters: Any) -> None:
        super().__init__(backend, handler, worker, counters)
        #: FIFO of reply continuations: ("sync", SyncRequest) fires the
        #: release, ("query", ResultBox) fills the box, ("invoke",
        #: SyncRequest) hands a client-executed body's outcome over, then fires
        self._waiting: Deque[Tuple[str, Any]] = deque()
        self._failed: Optional[BaseException] = None
        self._failovers = 0

    def _start_stream(self, frames: List[Dict[str, Any]]) -> AsyncFrameStream:
        """A new stream whose outbox starts with ``frames``, plus its reader.

        Each frame is flushed into the outbox on its own (mirroring the
        blocking driver's eager hello and replay sends) so none of them
        inflates the ``wire_frames_coalesced`` count of the first data
        burst; the reader task connects and ships the outbox.
        """
        stream = self._stream = AsyncFrameStream(self.backend.codec)
        for frame in frames:
            stream.send(frame)
        asyncio.get_running_loop().create_task(
            self._reader(stream, self.worker.data_addr),
            name=f"pq-reader:{self.handler.name}")
        return stream

    def _send(self, frames: List[Dict[str, Any]]) -> None:
        # a frame written to a dying transport is replayed by the reader
        # task's failover, so no inline delivery probe is needed
        if self._failed is not None:
            raise self._failed
        stream = self._stream or self._start_stream([self.core.hello(self.client_name)])
        for frame in frames:
            stream.feed(frame)
        if stream.flush():
            self.core.sent(frames)

    def enqueue_sync(self, request: SyncRequest) -> SyncRequest:
        self._send(self.core.sync())
        self._waiting.append(("sync", request))
        return request

    def enqueue_query(self, request: Any) -> ResultBox:
        self.synced = False
        self._send(self.core.query(request))
        self._waiting.append(("query", request.result))
        return request.result

    def _issue_invoke(self, handle: Any, fn: Any, args: tuple, kwargs: dict,
                      carries_sync: bool) -> SyncRequest:
        self._send(self.core.invoke(handle, fn, args, kwargs, carries_sync))
        request = SyncRequest(release=self.backend.create_event())
        self._waiting.append(("invoke", request))
        return request

    def enqueue_query_sync(self, handle: Any, fn: Any, args: tuple,
                           kwargs: dict) -> SyncRequest:
        """Ship an unsynced query's body as its own sync; the await is the waiter's."""
        return self._issue_invoke(handle, fn, args, kwargs, True)

    async def invoke_async(self, handle: Any, fn: Any, args: tuple, kwargs: dict) -> Any:
        """Awaitable twin of the blocking driver's ``invoke``."""
        request = self._issue_invoke(handle, fn, args, kwargs, False)
        await request.release.wait_async()
        return _unwrap(*request.outcome)

    def enqueue_end(self) -> None:
        super().enqueue_end()
        if self._waiting:
            # abandoned with the block: their replies are the core's stale
            # debt now, so the continuations would only steal later ones
            self._drop_waiting(ScoopError(
                f"a reply from handler {self.handler.name!r} was abandoned when "
                f"its separate block closed"))

    # -- reply delivery (runs on the owning loop, from the reader task) ------
    @staticmethod
    def _resolve(kind: str, target: Any, value: Any, error: Optional[BaseException]) -> None:
        if kind == "sync":
            # a sync has no error channel; a failed queue releases the waiter
            # and the block's next operation raises the recorded failure
            target.fire()
        elif kind == "query":
            _settle(target, value, error)
        else:  # invoke
            target.outcome = (value, error)
            target.fire()

    def _deliver(self, reply: Dict[str, Any]) -> None:
        self._failovers = 0  # contact with a live worker resets the budget
        outcome = self.core.classify(reply)
        if outcome is not None and self._waiting:
            self._resolve(*self._waiting.popleft(), *outcome)

    def _fail_waiting(self, exc: BaseException) -> None:
        """Poison the queue: resolve every waiter, refuse further sends."""
        self._failed = exc
        self._drop_waiting(exc)

    def _drop_waiting(self, exc: BaseException) -> None:
        while self._waiting:
            self._resolve(*self._waiting.popleft(), None, exc)

    async def _reader(self, stream: AsyncFrameStream, addr: Tuple[str, int]) -> None:
        """Connect, then pump replies into continuations until EOF."""
        try:
            try:
                await stream.connect(*addr)
                while True:
                    self._deliver(await stream.recv())
            except (SocketQueueClosed, OSError, asyncio.TimeoutError):
                if self._stream is stream:
                    await self._reader_failover()
        finally:
            stream.close()

    async def _reader_failover(self) -> None:
        """Re-establish this queue on the dead worker's replacement.

        Worker re-pinning runs in an executor (it may spawn a subprocess —
        far too slow for the loop), then the new stream is installed with
        the core's replay sequence in ONE synchronous section, so a client
        ``_send`` interleaved at the await points is either journaled
        before the replay snapshot or lands in the new stream's outbox —
        never both, never neither.
        """
        backend = self.backend
        if backend._shutting_down:
            self._fail_waiting(ScoopError(
                f"handler process for {self.handler.name!r} closed the "
                f"connection while a coroutine client was attached"))
            return
        self._failovers += 1
        if self._failovers > 2:  # the replacement itself kept dying
            self._fail_waiting(ScoopError(
                f"handler {self.handler.name!r} lost its worker process and "
                f"failover could not re-establish the block"))
            return
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, backend.worker_failed, self.worker)
            self.worker = await loop.run_in_executor(
                None, backend._worker_for, self.handler.name)
        except ScoopError as exc:
            self._fail_waiting(exc)
            return
        self._start_stream(self.core.replay(self.client_name))


class ProcessBackend(ExecutionBackend):
    """Execute each handler in its own OS process behind a socket server.

    Parameters
    ----------
    processes:
        Maximum number of worker processes (handlers are assigned
        round-robin).  ``None`` (default) gives every handler its own.
    codec:
        Wire codec for request/reply payloads: ``"pickle"`` (default; full
        argument fidelity between same-trust processes), ``"bin"`` or
        ``"json"``.
    loops:
        Number of client event loops (``nloops`` in the selection spec).
        ``0`` (default): clients are threads, the backend is ``"process"``.
        ``>= 1``: the ``"process+async"`` configuration — coroutine clients
        are spread round-robin across that many loops, so reply decoding
        and continuation dispatch parallelise over real threads while the
        handler bodies run on worker cores; thread clients still work.

    A worker process that dies mid-run is detected on its broken connections
    and its handlers are re-pinned onto surviving (or fresh) workers: each
    handler is restored from the last checkpoint its worker shipped (before
    the first: from the adopt-time snapshots of its objects) and the blocks
    above it are replayed from its :class:`HandlerJournal` in ticket order,
    so clients observe at most a stall — never a dropped or reordered
    request.
    """

    def __init__(self, processes: Optional[int] = None, codec: str = "pickle",
                 loops: int = 0) -> None:
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1")
        self.runtime: Any = None
        self.processes = processes
        self.codec = get_codec(codec).name
        self.nloops = loops
        self.name = "process+async" if loops else "process"
        self._bind_clients(LoopPool(loops) if loops else ThreadClients())
        self.token = secrets.token_hex(16)
        self._lock = threading.Lock()
        self._workers: List[_WorkerProcess] = []
        self._assignment: Dict[str, _WorkerProcess] = {}
        self._listener: Optional[socket.socket] = None
        #: the blocking drivers' open streams (closed at shutdown); their own
        #: lock, because ``_lock`` is held for seconds by a failover and
        #: ``close`` also runs on event loops
        self._streams: Set[FrameStream] = set()
        self._streams_lock = threading.Lock()
        self._shutting_down = False
        self._oid_seq = itertools.count(1)
        self._counters_seen: Dict[str, Dict[str, int]] = {}
        self._counters_lock = threading.Lock()
        #: each handler's failover replay window (each with its own lock)
        self._journals: Dict[str, HandlerJournal] = {}
        #: loop-affinity hints recorded for shard replicas (describe_placement)
        self._loop_hint: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # worker management
    # ------------------------------------------------------------------
    def _ensure_listener(self) -> socket.socket:
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            listener.listen(16)
            self._listener = listener
        return self._listener

    def _spawn_worker(self) -> _WorkerProcess:
        if os.environ.get("REPRO_PROCESS_WORKER"):
            # we *are* a worker: the parent's __main__ was imported here to
            # make its classes unpicklable-compatible, and it tried to build
            # a runtime at import time.  Refusing breaks the fork bomb.
            raise ScoopError(
                "refusing to spawn worker processes from inside a worker process; "
                "guard your script's entry point with `if __name__ == '__main__':` "
                "(the process backend imports it, multiprocessing-style, so its "
                "classes can unpickle in the workers)")
        listener = self._ensure_listener()
        env = dict(os.environ)
        # the worker must import repro (and unpickle classes defined in the
        # caller's modules), so it inherits this interpreter's search path
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        # a plain-script parent (__main__ with a file, not `-m pkg`) gets the
        # multiprocessing-style fixup so its module-level classes unpickle
        main_module = sys.modules.get("__main__")
        main_path = None
        if main_module is not None and getattr(main_module, "__spec__", None) is None:
            main_path = getattr(main_module, "__file__", None)
        env["REPRO_PROCESS_WORKER"] = json.dumps({
            "host": "127.0.0.1", "port": listener.getsockname()[1],
            "token": self.token, "codec": self.codec, "main_path": main_path,
        })
        proc = subprocess.Popen([sys.executable, "-c", _WORKER_CMD], env=env)
        listener.settimeout(30.0)
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            proc.kill()
            raise ScoopError("worker process did not connect back in time") from None
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        control = FrameStream(conn, "pickle")
        ready = control.recv(timeout=30.0)
        if ready is None or ready.get("op") != "ready" or ready.get("token") != self.token:
            proc.kill()
            raise ScoopError("worker process handshake failed")
        worker = _WorkerProcess(proc, control, ("127.0.0.1", int(ready["port"])))
        self._workers.append(worker)
        return worker

    def _worker_for(self, handler_name: str) -> _WorkerProcess:
        with self._lock:
            worker = self._assignment.get(handler_name)
            if worker is not None:
                return worker
            if self.processes is not None and len(self._workers) >= self.processes:
                worker = self._workers[len(self._assignment) % self.processes]
            else:
                worker = self._spawn_worker()
            self._assignment[handler_name] = worker
            worker.handler_names.append(handler_name)
            return worker

    def register_stream(self, stream: FrameStream) -> None:
        with self._streams_lock:
            self._streams.add(stream)

    def unregister_stream(self, stream: Any) -> None:
        with self._streams_lock:
            self._streams.discard(stream)

    # ------------------------------------------------------------------
    # failover: re-pin + restore from the handler's journal
    # ------------------------------------------------------------------
    def journal(self, handler_name: str) -> HandlerJournal:
        """The failover journal of ``handler_name`` (created on first use)."""
        journal = self._journals.get(handler_name)
        if journal is None:
            journal = self._journals.setdefault(handler_name, HandlerJournal())
        return journal

    def journal_size(self) -> Tuple[int, int]:
        """``(blocks, frames)`` the journals hold now, over all handlers."""
        sizes = [journal.size() for journal in list(self._journals.values())]
        return sum(blocks for blocks, _ in sizes), sum(frames for _, frames in sizes)

    def worker_failed(self, dead: _WorkerProcess) -> None:
        """Re-pin a dead worker's handlers onto survivors (idempotent).

        Holds the backend lock across the whole re-pin + restore, so a
        client racing to reconnect (blocked in :meth:`_worker_for`) cannot
        hello a replacement before its handler server, hosted objects and
        journaled blocks are in place.  Capped pools spread orphans
        round-robin over the survivors; uncapped pools keep the
        one-process-per-handler shape by spawning a fresh worker per
        orphan.  Bumps ``shard_failovers`` once per re-pinned handler.
        """
        with self._lock:
            if dead not in self._workers:
                return  # someone else already failed this worker over
            if dead.proc.poll() is None:
                # connections broke but the process lingers (half-dead, e.g.
                # stuck after closing its sockets): finish the job so the
                # replacement is unambiguous
                dead.proc.kill()
                try:
                    dead.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                    pass
            self._workers.remove(dead)
            dead.control.close()
            for i, name in enumerate(sorted(dead.handler_names)):
                if self.processes is not None and self._workers:
                    target = self._workers[i % len(self._workers)]
                else:
                    target = self._spawn_worker()
                self._assignment[name] = target
                target.handler_names.append(name)
                self._restore_handler(target, name)
                handler = self.runtime and self.runtime._handlers.get(name)
                if handler:
                    handler.counters.bump("shard_failovers")

    def _restore_handler(self, target: _WorkerProcess, name: str) -> None:
        """Rebuild one orphaned handler on ``target`` (caller holds _lock).

        The I/O half of :meth:`HandlerJournal.take_restore`: the handler is
        created from the newest checkpoint (its drain starts right above
        that ticket), objects adopted since are hosted from their adopt-time
        pickles, and the ended blocks above the ticket are pre-filed for
        re-execution.  Both kinds of state travel as the bytes they were
        pickled to; only the worker unpickles them.
        """
        checkpoint, adopted, blocks = self.journal(name).take_restore()
        op = self._handler_op(name)
        if checkpoint:
            op["checkpoint"] = {"ticket": checkpoint["ticket"], "state": checkpoint["state"]}
        target.request(op)
        for oid, blob in adopted:
            target.request({"op": "host", "handler": name, "oid": oid, "obj": blob})
        if blocks:
            target.request({"op": "restore", "handler": name, "blocks": blocks})

    def create_shard_handlers(self, runtime: Any, names: List[str]) -> List[Any]:
        """Place shard replicas so sharding means real cores.

        Without a worker cap the default placement (one fresh process per
        handler) is already ideal.  With a cap, pre-pin replica ``i`` to
        worker ``i % cap`` *before* the handlers start — deterministic
        round-robin across the whole pool, independent of how many handlers
        (and therefore assignments) the program created earlier, so a
        4-shard group on a 4-worker pool always lands on 4 distinct
        processes instead of wherever the global rotation happened to be.
        """
        if self.nloops:
            # which client loop a replica's coroutine traffic ideally
            # concentrates on (reported by describe_placement)
            with self._lock:
                for i, name in enumerate(names):
                    self._loop_hint[name] = i % self.nloops
        if self.processes is not None:
            with self._lock:
                pool = max(1, min(self.processes, len(names)))
                while len(self._workers) < pool:
                    self._spawn_worker()
                for i, name in enumerate(names):
                    if name not in self._assignment:
                        worker = self._workers[i % pool]
                        self._assignment[name] = worker
                        worker.handler_names.append(name)
        return super().create_shard_handlers(runtime, names)

    # ------------------------------------------------------------------
    # handler plumbing
    # ------------------------------------------------------------------
    def _control_request(self, handler_name: str, op: Dict[str, Any]) -> Dict[str, Any]:
        """Send a control op for ``handler_name``, failing over a dead worker.

        A control op can fail because the worker crashed (fail over, retry on
        the replacement) or because it rejected the op (a real error — the
        worker is alive, so re-raise).  Returns the worker's reply.
        """
        worker = self._worker_for(handler_name)
        try:
            return worker.request(op)
        except ScoopError:
            if worker.proc.poll() is None:
                raise
            self.worker_failed(worker)
            return self._worker_for(handler_name).request(op)

    def _handler_op(self, name: str) -> Dict[str, Any]:
        """The ``handler`` control op: the worker drains in the runtime's batches."""
        return {"op": "handler", "name": name, "qoq_batch": self.runtime.config.qoq_batch}

    def start_handler(self, handler: Any) -> None:
        self._control_request(handler.name, self._handler_op(handler.name))
        # from now on reservations of this handler go over the wire
        handler.qoq = _RemoteQoQ(self, handler)

    def stop_handler(self, handler: Any, timeout: float = 5.0) -> None:
        facade = handler.qoq
        if not isinstance(facade, _RemoteQoQ):  # pragma: no cover - defensive
            return
        report = facade.report
        if report is None:
            facade.close()
            report = facade.report
        self.merge_worker_counters(handler, report.get("counters") or {})
        for description, remote_tb in report.get("failures") or ():
            handler.failures.append(RemoteHandlerError(description, remote_tb))

    # ------------------------------------------------------------------
    # placement hooks
    # ------------------------------------------------------------------
    def adopt_object(self, handler: Any, obj: Any) -> Any:
        oid = next(self._oid_seq)
        try:
            blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - whatever pickle refuses with
            raise ScoopError(
                f"cannot host {type(obj).__name__} in handler process "
                f"{handler.name!r}: {exc!r} (objects must be picklable, with an "
                f"importable, module-level class)") from exc
        self._control_request(
            handler.name, {"op": "host", "handler": handler.name, "oid": oid, "obj": blob})
        # the same bytes are what a replacement worker hosts until a
        # checkpoint covers the object
        self.journal(handler.name).adopted(oid, blob)
        return RemoteHandle(handler.name, oid, type(obj))

    def describe_placement(self, names: List[str]) -> Dict[str, str]:
        """The worker process each handler is pinned to (or ``unassigned``).

        With client loops the client half is visible too:
        ``worker:<pid>+loop:<i>``.  Handlers without a recorded loop
        affinity (anything outside a shard group) report ``loop:*``: their
        coroutine clients are spread round-robin over every loop.
        """
        with self._lock:
            placement = {}
            for name in names:
                worker = self._assignment.get(name)
                placement[name] = (f"worker:{worker.proc.pid}" if worker is not None
                                   else "unassigned")
                if self.nloops:
                    placement[name] += f"+loop:{self._loop_hint.get(name, '*')}"
            return placement

    def create_private_queue(self, handler: Any, counters: Any) -> _WireQueue:
        # the driver follows the client kind: a queue created on a loop
        # thread belongs to a coroutine client and must never block it
        driver = AsyncProcessPrivateQueue if self.on_loop_thread() else ProcessPrivateQueue
        return driver(self, handler, self._worker_for(handler.name), counters)

    # ------------------------------------------------------------------
    # counters aggregation
    # ------------------------------------------------------------------
    def merge_worker_counters(self, handler: Any, values: Dict[str, int]) -> None:
        """Fold a worker counter snapshot into the runtime's counters.

        Worker counters are monotonic, so the parent applies only the delta
        against the last snapshot it saw for that handler — replies can
        carry snapshots as often as they like without double counting.
        """
        with self._counters_lock:
            seen = self._counters_seen.setdefault(handler.name, {})
            for key, value in values.items():
                delta = value - seen.get(key, 0)
                if delta > 0:
                    handler.counters.add(key, delta)
                    seen[key] = value

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, runtime: Any) -> None:
        self.clients.start()  # a loop pool raises on re-attach
        super().attach(runtime)

    def shutdown(self, timeout: float = 10.0) -> None:
        # flag first: worker teardown closes the data connections, and the
        # coroutine drivers' reader tasks must read those EOFs as shutdown,
        # not as failovers
        self._shutting_down = True
        with self._lock:
            workers, self._workers = self._workers, []
            self._assignment.clear()
        with self._streams_lock:
            streams, self._streams = self._streams, set()
        self._journals.clear()
        for stream in streams:
            stream.close()
        for worker in workers:
            worker.stop(timeout)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self.clients.stop(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cap = self.processes if self.processes is not None else "per-handler"
        return f"ProcessBackend(processes={cap}, loops={self.nloops}, codec={self.codec!r})"
