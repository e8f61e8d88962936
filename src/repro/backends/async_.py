"""The asyncio execution backend: coroutine clients at very high fan-in.

The thread and process backends model every client as an OS thread, which
caps realistic fan-in at a few hundred clients — far from the paper's
motivating regime of "heavy traffic from millions of users".
:class:`AsyncBackend` moves the *client* side onto :mod:`asyncio` event
loops, where a client is a coroutine task costing a few KiB instead of
a stack and a kernel schedulable entity; ten thousand concurrent clients
are routine (``examples/async_fan_in.py --clients 10000``).

How the pieces execute:

* **Handlers are asyncio tasks.**  Each handler's queue-of-queues drain
  loop runs as a coroutine on one of the backend's event loops (each a
  dedicated daemon thread).  Instead of blocking in the queues' condition
  variables it parks on a per-handler :class:`asyncio.Event` that the
  queues' *drain-waiter* seam resolves on every enqueue
  (:meth:`~repro.queues.private_queue.PrivateQueue.register_drain_waiter`)
  — futures resolved on enqueue, with the batched drain fast path and the
  request dispatch (:meth:`~repro.core.handler.Handler.drain_batch`)
  unchanged.
* **Awaitable clients are asyncio tasks too.**  ``runtime.aclient(coro_fn)``
  runs a coroutine client on one of the loops; it talks to handlers through
  the awaitable surface of :class:`~repro.core.async_api.AsyncClient`
  (``await call/query/sync``, ``async with runtime.aclient().separate(...)``),
  whose waits resolve through :class:`AsyncEventHandle` futures instead of
  blocking the loop.
* **Blocking clients still work.**  ``runtime.client(fn)`` (and the main
  thread) keep their natural blocking style on real threads, exactly like
  the threaded backend; :class:`AsyncEventHandle` speaks both protocols
  (``wait()`` for threads, ``await wait_async()`` for coroutines), so both
  kinds of client coexist against the same handlers with identical
  counters — which is what lets the backend-parity suite run unmodified.

**Multi-loop mode** (``backend="async:nloops"``) runs *nloops* event loops,
each on its own daemon thread.  A handler is created on exactly one loop
and stays there for life — so per-handler guarantees are untouched: its
requests still execute one at a time, in order, on one thread (ownership
binds to that loop's thread exactly as the single-loop backend binds to
its only thread).  What multi-loop adds is parallelism *between* handlers:
shard replicas are pinned round-robin across loops through the
:meth:`create_shard_handlers` placement hook, so an I/O-heavy hot shard no
longer convoys every other shard behind its waits.  (CPU-bound handler
bodies still share the GIL; the win is for handlers that block in I/O or
sleep, and for isolating a flooded handler's backlog from its neighbours'
latency.)  Coroutine clients are spread round-robin over the same loops.

All reservation/protocol code is shared with the other backends; only the
blocking points differ.  Because handlers share their loop's thread, a
request body must not block (no blocking queries from inside handler code
— the ``threadring``-style handler-as-client pattern needs ``threads``).
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any, Callable, Coroutine, Deque, Dict, List, Optional, Tuple

from repro.backends.base import ClientHandle, ExecutionBackend, ThreadClients
from repro.errors import ScoopError
from repro.queues.qoq import SHUTDOWN


class _LoopThread:
    """One asyncio event loop on its own daemon thread, with coalesced posts.

    Cross-thread callbacks go through one shared deque per loop: posting
    coalesces the loop wake-ups (one self-pipe write per burst instead of
    one per callback — at 10k client spawns that is the difference between
    a syscall storm and a handful of writes).
    """

    __slots__ = ("index", "loop", "thread", "_ready",
                 "_pending", "_pending_lock", "_pending_scheduled")

    def __init__(self, index: int) -> None:
        self.index = index
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, name=f"async-loop-{index}",
                                       daemon=True)
        self._ready = threading.Event()
        self._pending: Deque[Tuple[Callable[..., None], tuple]] = deque()
        self._pending_lock = threading.Lock()
        self._pending_scheduled = False

    def start(self) -> None:
        self.thread.start()
        self._ready.wait()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._ready.set)
        try:
            self.loop.run_forever()
        finally:
            # give cancelled tasks one chance to unwind, then close for good
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self.loop.close()

    def post(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback`` on this loop, from any thread; no-op once closed."""
        if threading.current_thread() is self.thread:
            # same-thread fast path: skip the self-pipe write (this is the
            # hot path for coroutine clients waking their handlers)
            self.loop.call_soon(callback, *args)
            return
        with self._pending_lock:
            self._pending.append((callback, args))
            if self._pending_scheduled:
                return
            self._pending_scheduled = True
        try:
            self.loop.call_soon_threadsafe(self._drain_pending)
        except RuntimeError:  # loop already closed during teardown
            with self._pending_lock:
                self._pending_scheduled = False

    def _drain_pending(self) -> None:
        """Run every coalesced cross-thread callback (on the loop thread)."""
        while True:
            with self._pending_lock:
                if not self._pending:
                    self._pending_scheduled = False
                    return
                callback, args = self._pending.popleft()
            callback(*args)

    def stop(self, timeout: float) -> None:
        self.post(self.loop.stop)
        self.thread.join(timeout=timeout)


class LoopPool(ThreadClients):
    """The client axis when a client may be a coroutine task on an event loop.

    This is the part of the asyncio machinery that is *not* about handlers:
    starting/stopping ``nloops`` :class:`_LoopThread` s, spreading client
    tasks round-robin across them, recognising "am I on one of my loop
    threads?", handing out dual-protocol :class:`AsyncEventHandle` s and
    resolving their loop-bound futures from wherever ``set()`` was called.
    Blocking clients stay threads (inherited), so both kinds coexist.
    :class:`AsyncBackend` binds it next to coroutine handler loops,
    ``ProcessBackend(loops>=1)`` binds the *same* pool next to
    process-hosted handlers — one implementation of the loop lifecycle,
    two placements of the handler side.
    """

    __slots__ = ("nloops", "loops", "by_loop", "threads",
                 "_rr_lock", "_client_rr", "_started", "_finished")

    AXIS = ThreadClients.AXIS + ("spawn_task",)
    supports_async_clients = True

    def __init__(self, nloops: int = 1) -> None:
        if nloops < 1:
            raise ValueError(f"a loop pool needs at least one loop, got {nloops}")
        self.nloops = nloops
        self.loops: List[_LoopThread] = []
        self.by_loop: Dict[asyncio.AbstractEventLoop, _LoopThread] = {}
        self.threads: set = set()
        self._rr_lock = threading.Lock()
        self._client_rr = 0
        self._started = False
        self._finished = False

    def start(self) -> None:
        if self._started:
            raise ScoopError("a backend with event loops cannot be attached twice; "
                             "create a fresh backend per runtime")
        self._started = True
        self.loops = [_LoopThread(i) for i in range(self.nloops)]
        for lp in self.loops:
            lp.start()
        self.by_loop = {lp.loop: lp for lp in self.loops}
        self.threads = {lp.thread for lp in self.loops}

    def stop(self, timeout: float) -> None:
        if not self._started or self._finished:
            return
        self._finished = True
        for lp in self.loops:
            lp.stop(timeout)

    @property
    def finished(self) -> bool:
        return self._finished

    def on_loop_thread(self) -> bool:
        return threading.current_thread() in self.threads

    def create_event(self) -> "AsyncEventHandle":
        # dual-protocol events, so thread clients block and coroutine
        # clients await on the very same sync/query machinery
        return AsyncEventHandle(self)

    def _resolve_future(self, fut: asyncio.Future) -> None:
        """Resolve an event-handle future on the loop that owns it."""
        lp = self.by_loop.get(fut.get_loop())
        if lp is not None:
            if threading.current_thread() is lp.thread:
                # handlers fire sync releases / result boxes from their own
                # loop, so this is the hot path: resolve in place
                AsyncEventHandle._resolve(fut)
            else:
                lp.post(AsyncEventHandle._resolve, fut)
            return
        try:  # pragma: no cover - future from a loop we do not own
            fut.get_loop().call_soon_threadsafe(AsyncEventHandle._resolve, fut)
        except RuntimeError:
            pass

    def next_client_loop(self) -> _LoopThread:
        with self._rr_lock:
            index = self._client_rr
            self._client_rr += 1
        return self.loops[index % len(self.loops)]

    def spawn_task(self, factory: Callable[[], Coroutine], name: str) -> "AsyncClientHandle":
        """Schedule ``factory()`` as a loop task; returns a joinable handle."""
        if self._finished:
            raise ScoopError("the backend's event loops have been shut down")
        handle = AsyncClientHandle(name, self)
        lp = self.next_client_loop()

        def _start() -> None:
            task = lp.loop.create_task(factory(), name=name)
            task.add_done_callback(lambda _t: handle._mark_done())

        lp.post(_start)
        return handle


class AsyncEventHandle:
    """Event usable from both worlds: blocking threads and coroutines.

    ``wait``/``set``/``is_set``/``clear`` follow :class:`threading.Event`;
    ``wait_async`` additionally lets a coroutine on one of the backend's
    loops await the event without blocking that loop.  ``set()`` may be
    called from any thread: each pending future is resolved on the loop it
    was created on (futures are loop-bound, and with multiple loops the
    waiters of one event may span several of them).

    One of these is allocated per sync round trip and per packaged query,
    so the constructor stays skeletal: the :class:`threading.Event` a
    blocking waiter needs is only materialised on first blocking ``wait``
    (coroutine waiters — the 10k-fan-in hot path — never pay for it).
    """

    __slots__ = ("_pool", "_flag", "_thread_event", "_waiters", "_lock")

    def __init__(self, pool: LoopPool) -> None:
        self._pool = pool
        self._flag = False
        self._thread_event: Optional[threading.Event] = None
        self._waiters: Optional[List[asyncio.Future]] = None
        self._lock = threading.Lock()

    def set(self) -> None:
        with self._lock:
            self._flag = True
            thread_event = self._thread_event
            waiters, self._waiters = self._waiters, None
        if thread_event is not None:
            thread_event.set()
        if not waiters:
            return
        for fut in waiters:
            self._pool._resolve_future(fut)

    @staticmethod
    def _resolve(fut: asyncio.Future) -> None:
        if not fut.done():
            fut.set_result(True)

    def is_set(self) -> bool:
        return self._flag

    def clear(self) -> None:
        with self._lock:
            self._flag = False
            if self._thread_event is not None:
                self._thread_event.clear()

    def wait(self, timeout: Optional[float] = None) -> bool:
        if self._flag:
            return True
        with self._lock:
            if self._flag:
                return True
            if self._thread_event is None:
                self._thread_event = threading.Event()
            thread_event = self._thread_event
        return thread_event.wait(timeout=timeout)

    async def wait_async(self) -> bool:
        if self._flag:
            return True
        # the future must belong to the loop this coroutine runs on — with
        # multiple loops "the backend's loop" is ambiguous, the running one
        # is not
        fut = asyncio.get_running_loop().create_future()
        with self._lock:
            # re-check under the lock: a set() racing with registration must
            # either see the future or have left the flag set
            if self._flag:
                return True
            if self._waiters is None:
                self._waiters = []
            self._waiters.append(fut)
        await fut
        return True


class AsyncClientHandle(ClientHandle):
    """Joinable handle for a coroutine client (``join`` blocks a thread).

    One per spawned client, so it rides on :class:`AsyncEventHandle`'s
    deferred thread event: by the time someone blocks in ``join`` most of
    a fan-in's clients have usually finished already.
    """

    __slots__ = ("name", "_finished")

    def __init__(self, name: str, pool: LoopPool) -> None:
        self.name = name
        self._finished = AsyncEventHandle(pool)

    def _mark_done(self) -> None:
        self._finished.set()

    def join(self, timeout: Optional[float] = None) -> None:
        self._finished.wait(timeout=timeout)

    @property
    def done(self) -> bool:
        return self._finished.is_set()


class AsyncBackend(ExecutionBackend):
    """Execute handlers and coroutine clients on one or more asyncio loops."""

    name = "async"

    def __init__(self, loops: int = 1) -> None:
        if loops < 1:
            raise ValueError(f"AsyncBackend needs at least one loop, got {loops}")
        self.runtime: Any = None
        self.nloops = loops
        self._pool = LoopPool(loops)
        self._bind_clients(self._pool)
        #: shard-placement pins (handler name -> loop index) set by
        #: create_shard_handlers before the handlers are started
        self._pins: Dict[str, int] = {}
        #: where each started handler landed (for describe_placement)
        self._loop_of: Dict[str, int] = {}
        self._rr_lock = threading.Lock()
        self._handler_rr = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, runtime: Any) -> None:
        self._pool.start()  # raises on re-attach
        self.runtime = runtime

    def shutdown(self, timeout: float = 10.0) -> None:
        self._pool.stop(timeout)

    # ------------------------------------------------------------------
    # handler plumbing: a coroutine drain loop per handler
    # ------------------------------------------------------------------
    def _assign_handler_loop(self, name: str) -> _LoopThread:
        """Pick the loop a new handler lives on (pin beats round-robin)."""
        with self._rr_lock:
            pin = self._pins.pop(name, None)
            if pin is None:
                pin = self._handler_rr
                self._handler_rr += 1
            index = pin % len(self._pool.loops)
            self._loop_of[name] = index
        return self._pool.loops[index]

    def _waker(self, handler: Any) -> Callable[[], None]:
        """The drain-waiter callback installed on the handler's queues.

        One closure per handler, cached: a fan-in creates one private queue
        per (client, handler) pair, and they all share the same waker.
        """
        waker = getattr(handler, "_async_waker", None)
        if waker is not None:
            return waker

        def _wake() -> None:
            lp: _LoopThread = handler._async_loop
            if threading.current_thread() is lp.thread:
                # clients coroutines on the handler's own loop enqueue from
                # that loop: setting the (idempotent) event in place skips a
                # scheduled callback per request — the fan-in hot path
                handler._async_wake.set()
            else:
                lp.post(self._set_wake, handler)

        handler._async_waker = _wake
        return _wake

    @staticmethod
    def _set_wake(handler: Any) -> None:
        handler._async_wake.set()

    def start_handler(self, handler: Any) -> None:
        lp = self._assign_handler_loop(handler.name)
        handler._async_loop = lp
        handler._async_wake = asyncio.Event()
        handler._async_done = threading.Event()
        # one loop thread executes this handler for life, so bind ownership
        # there — the SeparateObject access checks keep working unchanged
        handler._thread = lp.thread
        handler.owner.bind_thread(lp.thread)
        handler.qoq.register_drain_waiter(self._waker(handler))

        def _start() -> None:
            task = lp.loop.create_task(self._handler_loop(handler),
                                       name=f"handler:{handler.name}")
            task.add_done_callback(lambda _t: handler._async_done.set())

        lp.post(_start)

    def stop_handler(self, handler: Any, timeout: float = 5.0) -> None:
        # the stop flag is set and the queue-of-queues closed by the caller
        # (close itself fires the drain waiter); nudge once more in case the
        # task was parked on an abandoned private queue, then wait it out
        handler._async_loop.post(self._set_wake, handler)
        handler._async_done.wait(timeout=timeout)

    def create_private_queue(self, handler: Any, counters: Any) -> Any:
        queue = super().create_private_queue(handler, counters)
        queue.register_drain_waiter(self._waker(handler))
        return queue

    def create_shard_handlers(self, runtime: Any, names: List[str]) -> List[Any]:
        """Pin consecutive shard replicas to distinct loops (round-robin).

        With one loop this is a no-op placement; with ``async:nloops`` it is
        what turns sharding into real between-handler parallelism — the
        same contract the process backend implements across worker
        processes, here across event loops.
        """
        with self._rr_lock:
            for i, name in enumerate(names):
                self._pins[name] = i
        return super().create_shard_handlers(runtime, names)

    def describe_placement(self, names: List[str]) -> Dict[str, str]:
        return {name: f"loop:{self._loop_of.get(name, 0)}" for name in names}

    async def _handler_loop(self, handler: Any) -> None:
        """The handler loop of Fig. 7, with awaits at the blocking points."""
        wake: asyncio.Event = handler._async_wake
        while True:
            private_queue = await self._next_queue(handler, wake)
            if private_queue is None:
                return
            await self._drain_private_queue(handler, private_queue, wake)

    @staticmethod
    async def _next_queue(handler: Any, wake: asyncio.Event) -> Optional[Any]:
        while True:
            item = handler.qoq.try_dequeue()
            if item is SHUTDOWN:
                return None
            if item is not None:
                return item
            await wake.wait()
            wake.clear()

    @staticmethod
    async def _drain_private_queue(handler: Any, private_queue: Any,
                                   wake: asyncio.Event) -> None:
        max_items = max(1, handler.config.qoq_batch)
        while True:
            batch = private_queue.dequeue_batch(max_items, timeout=0.0)
            if not batch:
                # mirror ThreadedBackend.handler_next_batch: abandon the
                # queue only once the runtime is shutting down and the block
                # can never produce more requests
                if handler._stop.is_set() and len(private_queue) == 0 and (
                        private_queue.closed_by_client or handler.qoq.closed):
                    return
                if wake.is_set():
                    wake.clear()
                    continue
                await wake.wait()
                wake.clear()
                continue
            if handler.drain_batch(private_queue, batch):
                return
            # fairness point: let clients (and other handlers) run between
            # batches even when this queue is kept continuously full
            await asyncio.sleep(0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        running = bool(self._pool.loops) and self._pool.loops[0].loop.is_running()
        return f"AsyncBackend(loops={self.nloops}, running={running})"
