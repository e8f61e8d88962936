"""The SCOOP/Qs runtime: handler management, per-thread clients, statistics.

:class:`QsRuntime` is the top-level object applications interact with:

.. code-block:: python

    from repro import QsRuntime, SeparateObject, command, query

    class Counter(SeparateObject):
        def __init__(self): self.value = 0
        @command
        def increment(self, by=1): self.value += by
        @query
        def read(self): return self.value

    with QsRuntime() as rt:
        counter = rt.new_handler("counter").create(Counter)
        with rt.separate(counter) as c:
            c.increment(5)          # asynchronous command
            print(c.read())         # synchronous query -> 5

The runtime is parameterised by a :class:`~repro.config.QsConfig` (or a named
optimization level), which selects between the protocols the paper
evaluates; everything the runtime does is recorded in a shared
:class:`~repro.util.counters.Counters` instance that experiments read.
"""

from __future__ import annotations

import inspect
import os
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.backends import ExecutionBackend, create_backend
from repro.config import OptimizationLevel, QsConfig
from repro.core.client import Client
from repro.core.handler import Handler
from repro.core.region import SeparateRef
from repro.core.separate import SeparateBlock
from repro.errors import RuntimeShutdownError, ScoopError
from repro.util.counters import CounterSnapshot, Counters
from repro.util.tracing import NullTracer, Tracer


class QsRuntime:
    """Owner of handlers, clients and runtime configuration.

    ``backend`` selects how handlers and clients execute (see
    :mod:`repro.backends`): ``"threads"`` (the default), ``"sim"``,
    ``"process"`` or ``"async"`` (coroutine clients on one event loop, for
    very high fan-in).  The resolution order is: explicit ``backend`` argument,
    then the ``REPRO_BACKEND`` environment variable, then
    ``config.backend`` — so existing programs can be switched to the
    simulator (or to one-process-per-handler execution) without touching
    their source.
    """

    def __init__(self, config: "QsConfig | OptimizationLevel | str | None" = None,
                 trace: bool = False, trace_max_events: int = 1_000_000,
                 backend: "ExecutionBackend | str | None" = None) -> None:
        if config is None:
            config = QsConfig.all()
        elif isinstance(config, (OptimizationLevel, str)):
            config = QsConfig.from_level(config)
        self.config: QsConfig = config
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND") or self.config.backend
        self.backend: ExecutionBackend = create_backend(backend)
        self.counters = Counters()
        #: runtime instrumentation (Section 7's "SCOOP-specific instrumentation")
        self.tracer: "Tracer | NullTracer" = Tracer(trace_max_events) if trace else NullTracer()
        self._handlers: Dict[str, Handler] = {}
        self._handler_seq = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._shutdown = False
        #: thread clients spawned and not finished (``Client._sync_elided`` reads it)
        self.running_clients = 0
        self._client_handles: List[Any] = []
        self._client_errors: List[BaseException] = []
        self.backend.attach(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "QsRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # don't let collected failures mask an exception already unwinding
        # through the block (e.g. a DeadlockError from the sim backend)
        self.shutdown(check_failures=exc_type is None)

    def shutdown(self, timeout: float = 10.0, check_failures: bool = True) -> None:
        """Join clients, retire all handlers, optionally re-raise errors."""
        if self._shutdown:
            return
        self._shutdown = True
        for handle in self._client_handles:
            try:
                self.backend.join_client(handle, timeout=timeout)
            except ScoopError as exc:  # e.g. deadlock detected while joining
                self._client_errors.append(exc)
                break
        for handler in list(self._handlers.values()):
            handler.shutdown(timeout=timeout)
        self.backend.shutdown(timeout=timeout)
        if check_failures:
            failures = self.handler_failures()
            if self._client_errors:
                raise ScoopError(
                    f"{len(self._client_errors)} client thread(s) raised"
                ) from self._client_errors[0]
            if failures:
                raise ScoopError(
                    f"{len(failures)} asynchronous call(s) raised on handlers"
                ) from failures[0]

    def _check_open(self) -> None:
        if self._shutdown:
            raise RuntimeShutdownError("the runtime has been shut down")

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def new_handler(self, name: Optional[str] = None) -> Handler:
        """Create and start a fresh handler (a new thread of execution)."""
        self._check_open()
        with self._lock:
            if name is None:
                self._handler_seq += 1
                name = f"handler-{self._handler_seq}"
            if name in self._handlers:
                raise ScoopError(f"a handler named {name!r} already exists")
            handler = Handler(name, config=self.config, counters=self.counters,
                              tracer=self.tracer, backend=self.backend)
            self._handlers[name] = handler
        return handler.start()

    def new_handlers(self, count: int, prefix: str = "worker") -> List[Handler]:
        """Create ``count`` handlers named ``{prefix}-0 .. {prefix}-{count-1}``."""
        return [self.new_handler(f"{prefix}-{i}") for i in range(count)]

    def sharded(self, name: str, shards: int, shard_key: Optional[Callable[[Any], Any]] = None,
                vnodes: Optional[int] = None) -> Any:
        """Create a :class:`~repro.shard.group.ShardedGroup` of ``shards`` handlers.

        The group partitions one logical object across ``shards`` replica
        handlers (named ``{name}/shard{i}``) with consistent key hashing;
        populate it with ``.create(cls, ...)`` or ``.adopt([...])`` and open
        routing blocks with ``group.separate()`` /
        ``group.separate_async()``.  ``shard_key`` maps routing keys to the
        stable key the hash ring uses (identity by default); ``vnodes``
        tunes the ring's virtual-node count.  See ``docs/sharding.md``.
        """
        self._check_open()
        from repro.shard.group import ShardedGroup
        from repro.shard.ring import DEFAULT_VNODES

        return ShardedGroup(self, name, shards, shard_key=shard_key,
                            vnodes=vnodes if vnodes is not None else DEFAULT_VNODES)

    def handler(self, name: str) -> Handler:
        """Get (or lazily create) the handler called ``name``."""
        with self._lock:
            existing = self._handlers.get(name)
        if existing is not None:
            return existing
        return self.new_handler(name)

    @property
    def handlers(self) -> List[Handler]:
        with self._lock:
            return list(self._handlers.values())

    def handler_failures(self) -> List[BaseException]:
        """Exceptions raised by asynchronous calls (no client was waiting)."""
        failures: List[BaseException] = []
        for handler in self.handlers:
            failures.extend(handler.failures)
        return failures

    # ------------------------------------------------------------------
    # clients and separate blocks
    # ------------------------------------------------------------------
    def current_client(self) -> Client:
        """The calling thread's client (created on first use)."""
        client = getattr(self._local, "client", None)
        if client is None:
            client = Client(self.config, self.counters, name=threading.current_thread().name,
                            tracer=self.tracer, backend=self.backend)
            self._local.client = client
        return client

    def separate(self, *refs: SeparateRef, wait_until: Optional[Callable[..., bool]] = None,
                 wait_timeout: Optional[float] = None) -> SeparateBlock:
        """Open a separate block reserving the handlers of ``refs``.

        ``wait_until`` turns the block into a SCOOP *wait condition*: the
        reservation is only kept once the predicate (called with the reserved
        proxies) evaluates to true; otherwise the handlers are released and
        the reservation retried (see :mod:`repro.core.conditions`).
        """
        self._check_open()
        return SeparateBlock(self.current_client(), refs, wait_until=wait_until,
                             wait_timeout=wait_timeout)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    @property
    def tracing_enabled(self) -> bool:
        return self.tracer.enabled

    def trace_events(self, **criteria):
        """Recorded :class:`~repro.util.tracing.TraceEvent` objects (filtered)."""
        return self.tracer.events(**criteria) if self.tracer.enabled else []

    # ------------------------------------------------------------------
    # clients (concurrent workloads spawn these)
    # ------------------------------------------------------------------
    def client(self, fn: Optional[Callable[..., Any]] = None, *args,
               name: Optional[str] = None, **kwargs) -> Any:
        """The one client factory: spawn ``fn`` as a client, or get your own.

        With a callable, runs ``fn(*args, **kwargs)`` as a new client and
        returns a joinable handle; errors are collected and re-raised at
        shutdown.  What kind of client ``fn`` becomes follows its shape: a
        plain function runs on a client thread (a real
        :class:`threading.Thread` under the threaded backend, a virtual-time
        task under the sim backend), a coroutine function runs as an asyncio
        task on the backend's event loop (asyncio backends only) — so one
        spelling covers every backend.

        Without arguments, returns the calling thread's blocking
        :class:`~repro.core.client.Client` (the one ``runtime.separate``
        uses).  Coroutine code wants :meth:`aclient` instead.
        """
        if fn is None:
            return self.current_client()
        if inspect.iscoroutinefunction(fn):
            return self._spawn_coroutine_client(fn, *args, name=name, **kwargs)
        return self._spawn_thread_client(fn, *args, name=name, **kwargs)

    def aclient(self, fn: Optional[Callable[..., Any]] = None, *args,
                name: Optional[str] = None, **kwargs) -> Any:
        """Awaitable twin of :meth:`client` for coroutine code.

        With a coroutine function, runs ``fn(*args, **kwargs)`` as a client
        task on the backend's event loop (thousands of concurrent clients
        cost coroutines, not OS threads) and returns a handle that joins
        from any thread.  Without arguments, returns the calling task's
        :class:`~repro.core.async_api.AsyncClient` (created on first use),
        whose ``separate(*refs)`` opens the awaitable separate block::

            async with rt.aclient().separate(account) as acc:
                await acc.deposit(42)
                print(await acc.current_balance())
        """
        if fn is None:
            from repro.core.async_api import current_async_client

            return current_async_client(self)
        if not inspect.iscoroutinefunction(fn):
            raise TypeError(
                f"aclient() spawns coroutine clients; {getattr(fn, '__name__', fn)!r} is not "
                "a coroutine function — use runtime.client(...) for thread clients")
        return self._spawn_coroutine_client(fn, *args, name=name, **kwargs)

    def _spawn_thread_client(self, fn: Callable[..., None], *args,
                             name: Optional[str] = None, **kwargs) -> Any:
        self._check_open()

        def _run() -> None:
            try:
                fn(*args, **kwargs)
            except BaseException as exc:  # surfaced at shutdown
                self._client_errors.append(exc)
            finally:
                with self._lock:
                    self.running_clients -= 1
                client = getattr(self._local, "client", None)
                if client is not None:
                    client.close()

        with self._lock:
            self.running_clients += 1
        handle = self.backend.spawn_client(_run, name=name or f"client:{fn.__name__}")
        self._client_handles.append(handle)
        return handle

    def _spawn_coroutine_client(self, fn: Callable[..., Any], *args,
                                name: Optional[str] = None, **kwargs) -> Any:
        self._check_open()
        from repro.core.async_api import AsyncClient, bind_async_client

        client_name = name or f"client:{getattr(fn, '__name__', 'async')}"
        # constructing the client up front validates the backend/config
        # combination before anything is scheduled on the loop
        client = AsyncClient(self, name=client_name)

        async def _run() -> None:
            bind_async_client(client)
            try:
                await fn(*args, **kwargs)
            except BaseException as exc:  # surfaced at shutdown
                self._client_errors.append(exc)
            finally:
                client.close()

        handle = self.backend.spawn_task(_run, name=client_name)
        self._client_handles.append(handle)
        return handle

    def join_clients(self, timeout: Optional[float] = None) -> None:
        """Wait for every spawned client to finish."""
        handles = list(self._client_handles)
        for handle in handles:
            self.backend.join_client(handle, timeout=timeout)
        if timeout is None:
            # joined without a deadline means finished: forget them, so a
            # long-running runtime does not accumulate a handle per client
            del self._client_handles[:len(handles)]
        if self._client_errors:
            raise ScoopError("a client thread raised") from self._client_errors[0]

    def event(self):
        """A backend-appropriate event for coordination inside workloads.

        Use this instead of :class:`threading.Event` in code that must run
        on both backends: the threaded backend returns a real thread event,
        the sim backend one that waits in virtual time.
        """
        return self.backend.create_event()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> CounterSnapshot:
        return self.counters.snapshot()

    def reset_stats(self) -> None:
        self.counters.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"QsRuntime(config={self.config.name}, backend={self.backend.name}, "
                f"handlers={len(self._handlers)})")


def lock_based_runtime() -> QsRuntime:
    """The original (pre-Qs) lock-based SCOOP runtime: no optimizations."""
    return QsRuntime(QsConfig.none())


def qs_runtime(level: "QsConfig | OptimizationLevel | str" = OptimizationLevel.ALL) -> QsRuntime:
    """Convenience constructor used throughout the benchmarks."""
    return QsRuntime(level)
