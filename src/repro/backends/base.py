"""The execution-backend interface of the SCOOP/Qs runtime.

The paper's central claim is that the reasoning guarantees survive the Qs
runtime redesign; the evaluation demonstrates it by running the *same*
programs under multiple protocol configurations.  This module extends that
methodology one level down: the :class:`~repro.core.runtime.QsRuntime` is
parameterised by an :class:`ExecutionBackend` that decides *how* handlers and
clients actually execute, while all protocol logic (queue-of-queues,
private queues, sync coalescing, reservations) stays shared:

* :class:`~repro.backends.threaded.ThreadedBackend` — one OS thread per
  handler and per spawned client; real parallelism, wall-clock time.
* :class:`~repro.backends.sim.SimBackend` — every handler and client is a
  task of the :class:`~repro.sched.scheduler.CooperativeScheduler`;
  execution is serialised deterministically, time is virtual, and a stuck
  configuration raises :class:`~repro.errors.DeadlockError` instead of
  hanging.
* :class:`~repro.backends.process.ProcessBackend` — each handler lives in
  its own OS process behind a socket server; clients stay threads of the
  parent and talk to handlers over framed socket private queues, so
  handlers execute with real multi-core parallelism.
* :class:`~repro.backends.async_.AsyncBackend` — handlers and coroutine
  clients are asyncio tasks on one event loop; clients are nearly free,
  so concurrent fan-in scales to tens of thousands.

A backend is the product of two small axes:

1. *what a client is* — the synchronisation objects a client waits on
   (`create_event`, `create_lock`), its clock (`now`, `sleep`) and how one is
   started (`spawn_client`, `spawn_task`, `on_loop_thread`).  Two
   implementations exist and backends *bind* one instead of re-implementing
   it: :class:`ThreadClients` (a client is an OS thread) and
   :class:`~repro.backends.async_.LoopPool` (a client may also be a coroutine
   task on an event loop).  The simulator defines its own (virtual time).
2. *where a handler drains* — `start_handler` / `stop_handler` /
   `notify_handler`, plus the placement hooks: where a handler's objects
   live (`adopt_object`), what a client's private queue to a handler is
   (`create_private_queue`), what an unsynced client-executed query puts
   on that queue (`enqueue_query_sync`) and where the body of an already
   synced one runs (`execute_synced_query`).  The in-memory backends keep
   the defaults (objects and queues are local, a query is the SYNC marker
   and its body runs on the client); the process backend reroutes all four
   over its sockets, and there the body *is* the sync: one frame, one reply.

Backends whose handlers run :meth:`Handler._loop <repro.core.handler.Handler>`
on a thread of their own (``threads``, ``sim``) also implement its two
blocking hooks, `handler_next_queue` and `handler_next_batch`.

Everything else — the request protocol itself — never changes between
backends, which is what makes backend-parity testing meaningful.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional

from repro.queues.private_queue import PrivateQueue, SyncRequest


class ClientHandle(ABC):
    """Something ``spawn_client`` returns that a caller can ``join``.

    The threaded backend returns the :class:`threading.Thread` itself (which
    already satisfies this protocol); the sim backend returns a handle whose
    ``join`` waits in virtual time.
    """

    @abstractmethod
    def join(self, timeout: Optional[float] = None) -> None:  # pragma: no cover
        raise NotImplementedError


class ThreadClients:
    """The client axis when a client is an OS thread (wall-clock time).

    Stateless; :class:`~repro.backends.async_.LoopPool` extends it with
    coroutine clients (blocking thread clients keep working alongside).
    """

    __slots__ = ()

    #: what a backend binds from its client axis (`_bind_clients`)
    AXIS = ("supports_async_clients", "create_event", "create_lock", "now", "sleep",
            "spawn_client", "on_loop_thread")

    #: True when the axis can run coroutine clients (``spawn_task``)
    supports_async_clients = False

    create_event = staticmethod(threading.Event)
    # reservation spinlocks protect a handful of non-awaiting instructions,
    # so a plain thread lock is safe for coroutine clients too
    create_lock = staticmethod(threading.Lock)
    now = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)

    def start(self) -> None:
        """Bring the axis up (called from the backend's ``attach``)."""

    def stop(self, timeout: float) -> None:
        """Tear the axis down (called from the backend's ``shutdown``)."""

    @staticmethod
    def spawn_client(fn: Callable[[], None], name: Optional[str] = None) -> threading.Thread:
        thread = threading.Thread(target=fn, name=name, daemon=True)
        thread.start()
        return thread

    @staticmethod
    def on_loop_thread() -> bool:
        """True when called from a thread that runs coroutine clients."""
        return False


class ExecutionBackend(ABC):
    """Strategy object deciding how handlers and clients execute."""

    #: short name used by ``--backend`` and ``QsConfig.backend``
    name: str = "abstract"

    #: True when the backend can run coroutine clients (``spawn_task``)
    supports_async_clients = False

    def _bind_clients(self, clients: ThreadClients) -> None:
        """Adopt a client axis by *binding* its methods as this backend's own.

        Bound, not forwarded: ``backend.create_event`` is the axis's
        callable itself (``threading.Event`` for thread clients), so the
        per-sync and per-query paths pay no delegation call.
        """
        self.clients = clients
        for name in clients.AXIS:
            setattr(self, name, getattr(clients, name))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, runtime: Any) -> None:
        """Bind this backend to a runtime (called once, from ``QsRuntime``)."""
        self.runtime = runtime

    def shutdown(self, timeout: float = 10.0) -> None:
        """Tear down backend-owned resources (scheduler thread, ...)."""

    # ------------------------------------------------------------------
    # placement hooks (overridden by distributed backends)
    # ------------------------------------------------------------------
    def adopt_object(self, handler: Any, obj: Any) -> Any:
        """Place ``obj`` on ``handler``; return what the SeparateRef wraps.

        In-memory backends return ``obj`` unchanged.  The process backend
        ships the object to the handler's process and returns a
        :class:`~repro.backends.process.RemoteHandle` in its stead.
        """
        return obj

    def create_shard_handlers(self, runtime: Any, names: List[str]) -> List[Any]:
        """Create the replica handlers backing one sharded group.

        The placement hook of :mod:`repro.shard`: a backend may steer where
        the replicas of a logical object execute.  The default — used by the
        in-memory backends, where every handler shares the process anyway —
        simply creates one ordinary handler per name.  The process backend
        overrides this to pin consecutive replicas to *distinct* worker
        processes (round-robin across the pool), so a sharded group always
        spreads over real cores regardless of how many handlers existed
        before it.
        """
        return [runtime.new_handler(name) for name in names]

    def describe_placement(self, names: List[str]) -> Dict[str, str]:
        """Where each named handler executes (``ShardedGroup.topology``).

        In-memory backends host every handler inside the current process;
        the process backend overrides this with the worker each handler is
        pinned to (``"worker:<pid>"``), which is also how a failover's
        re-pinning becomes observable.
        """
        return {name: "in-process" for name in names}

    def create_private_queue(self, handler: Any, counters: Any) -> Any:
        """Build the private queue a client uses to talk to ``handler``.

        The default is the in-memory SPSC
        :class:`~repro.queues.private_queue.PrivateQueue`; the process
        backend substitutes a socket-backed queue with the same surface.
        """
        return PrivateQueue(handler=handler, counters=counters)

    def enqueue_query_sync(self, queue: Any, ref: Any, fn: Callable[[Any], Any],
                           described: Dict[str, Any]) -> SyncRequest:
        """Put an unsynced client-executed query on ``queue`` (Fig. 10b).

        Returns the in-flight round trip the client waits on, in its own
        wait style.  In shared memory that is the SYNC marker alone: the
        release leaves ``outcome`` unset and the body then runs on the
        waiting client (:meth:`execute_synced_query`).  The process backend
        ships the body (``described``: the keywords of
        :meth:`execute_synced_query`) in the marker's place, so its one reply is release and result both.
        """
        return queue.enqueue_sync(SyncRequest(release=self.create_event()))

    def execute_synced_query(self, client: Any, ref: Any, fn: Callable[[Any], Any],
                             feature: Optional[str] = None, args: tuple = (),
                             kwargs: Optional[dict] = None,
                             raw_fn: Optional[Callable[..., Any]] = None) -> Any:
        """Run a client-executed query body after the sync (Section 3.2).

        The client has already synchronised with the handler, so the handler
        is parked on this client's queue.  In shared memory the body simply
        runs against the raw object (``fn`` is the one-argument closure over
        the actual call).  The process backend ships a described invocation
        instead: ``feature``/``args``/``kwargs`` when the query is a named
        method, the picklable ``raw_fn`` (applied as ``raw_fn(obj, *args,
        **kwargs)``) or ``fn`` itself otherwise.
        """
        return fn(ref._raw())

    async def execute_synced_query_async(self, client: Any, ref: Any, fn: Callable[[Any], Any],
                                         feature: Optional[str] = None, args: tuple = (),
                                         kwargs: Optional[dict] = None,
                                         raw_fn: Optional[Callable[..., Any]] = None) -> Any:
        """Awaitable twin of :meth:`execute_synced_query` for coroutine clients.

        The in-memory backends run the body inline (nothing there can
        block, so the default simply delegates); a backend whose query
        bodies travel over a socket — the hybrid ``process+async`` backend
        — overrides this to await the round trip instead of blocking the
        event loop in the blocking hook.
        """
        return self.execute_synced_query(client, ref, fn, feature=feature,
                                         args=args, kwargs=kwargs, raw_fn=raw_fn)

    # ------------------------------------------------------------------
    # the client axis (bound from ThreadClients / LoopPool, or defined)
    # ------------------------------------------------------------------
    #: a ``threading.Event``-compatible object (wait/set/is_set/clear)
    create_event: Callable[[], Any]
    #: a ``threading.Lock``-compatible object (acquire/release)
    create_lock: Callable[[], Any]
    #: the backend's clock: wall-clock seconds or virtual time
    now: Callable[[], float]
    #: back off for ``seconds`` on the backend's clock
    sleep: Callable[[float], None]
    #: run ``fn`` as a new (blocking) client; returns a joinable handle
    spawn_client: Callable[..., Any]

    def spawn_task(self, factory: Callable[[], Any], name: str) -> Any:
        """Run the coroutine ``factory()`` as a client task.

        Only a backend whose client axis is a
        :class:`~repro.backends.async_.LoopPool` can; everywhere else
        coroutine clients are rejected before this is reached (see
        :class:`~repro.core.async_api.AsyncClient`).
        """
        raise NotImplementedError(
            f"the {self.name!r} backend cannot run coroutine clients; "
            "use backend='async' or 'process+async'")

    # ------------------------------------------------------------------
    # handler plumbing
    # ------------------------------------------------------------------
    @abstractmethod
    def start_handler(self, handler: Any) -> None:
        """Begin draining ``handler`` (thread, scheduler task, loop task, worker)."""

    @abstractmethod
    def stop_handler(self, handler: Any, timeout: float = 5.0) -> None:
        """Wait until the handler's loop has terminated.

        Called after the handler's stop flag is set and its queue-of-queues
        closed; the backend only has to wake and join the loop.
        """

    def notify_handler(self, handler: Any) -> None:
        """Hint that new work was enqueued for ``handler``.

        The threaded backend relies on the queues' internal condition
        variables, so this is a no-op there; the sim backend uses it to wake
        the handler's task (and to charge virtual time for the operation).
        """

    def join_client(self, handle: Any, timeout: Optional[float] = None) -> None:
        handle.join(timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"
