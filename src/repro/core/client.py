"""Client-side request machinery: reservations, calls, queries, sync elision.

Every thread that wants to talk to handlers owns a :class:`Client` (the
runtime hands them out per-thread).  The client implements the code the
SCOOP/Qs *compiler* would emit around a separate block (Figs. 8–11 in the
paper):

* ``reserve`` / ``release``  — enqueue a private queue into each reserved
  handler's queue-of-queues and append the END marker when the block closes
  (rule *separate*).  Multi-handler reservations take the per-handler
  spinlocks so the insertions are atomic (Section 3.3).  When the
  queue-of-queues optimization is disabled the client instead holds each
  handler's reservation lock for the whole block (the original protocol).
* ``call``   — package an asynchronous call and append it to the private
  queue (rule *call*, Fig. 9).
* ``query``  — *issue*, then *wait* (:class:`PendingQuery`; the blocking
  ``query`` and the awaitable one differ only in the wait).  Issue either
  ships a packaged query (the original rule) or, with the client-executed
  optimization (Fig. 10b), asks the backend what an unsynced query puts on
  the queue: in memory the SYNC marker, the body then running locally after
  the release; on a wire queue the body itself, which the handler reaches
  in FIFO order exactly where the marker would have stood, so its one reply
  is release and result both.  Dynamic sync coalescing (Section 3.4.1)
  skips the marker when the handler is already parked on this client's
  queue; the body alone then runs where the backend places it.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.backends.base import ExecutionBackend
from repro.backends.threaded import ThreadedBackend
from repro.config import QsConfig
from repro.core.expanded import prepare_arguments
from repro.core.handler import Handler
from repro.core.region import SeparateRef
from repro.errors import NotReservedError, ReservationError, ScoopError
from repro.queues.private_queue import CallRequest, PrivateQueue, ResultBox, SyncRequest
from repro.util.counters import Counters
from repro.util.tracing import NullTracer, Tracer


def _payload_size(args: tuple, kwargs: dict) -> int:
    """Rough payload size estimate used for bytes-copied accounting.

    Intentionally conservative and allocation free: it recognises numpy
    arrays, byte strings and plain containers and charges a word for
    anything else (references, separate refs, small scalars).
    """
    if not args and not kwargs:
        return 0
    total = 0
    for value in list(args) + list(kwargs.values()):
        nbytes = type(value).__dict__.get("nbytes")  # avoid arbitrary __getattr__
        if nbytes is None and hasattr(type(value), "nbytes") and type(value).__module__.startswith("numpy"):
            total += int(value.nbytes)
        elif isinstance(value, (bytes, bytearray, str)):
            total += len(value)
        elif isinstance(value, (list, tuple)):
            total += 8 * len(value)
        elif isinstance(value, dict):
            total += 16 * len(value)
        else:
            total += 8
    return total


@dataclass
class Reservation:
    """One client's live reservation of one handler."""

    handler: Handler
    private_queue: PrivateQueue
    #: True when the non-QoQ protocol acquired the handler's reservation lock
    holds_lock: bool = False


class PendingQuery:
    """A query that has been *issued* but whose wait is still the caller's.

    The one implementation of the query protocol: ``Client.query`` is issue
    + :meth:`wait`, the awaitable client's is issue + :meth:`wait_async`,
    and scatter-gather (:mod:`repro.shard`) issues one query per shard up
    front and collects afterwards.  The pending state is one of three:

    * the packaged query's result box (the unoptimized protocol);
    * the in-flight sync round trip of a client-executed query.  What rides
      it is the backend's choice (``enqueue_query_sync``): in memory the
      SYNC marker alone, so scattered *syncs* overlap and each body runs on
      the waiting side after its release; on a wire queue the body itself,
      so the shard-side *bodies* overlap and the release carries the result;
    * nothing, when dynamic coalescing elided the sync: the body runs at
      wait time through the backend's ``execute_synced_query``.

    At most one query may be pending per handler, and each result may be
    waited for once — waiting is what restores the client's synchronous
    control, so issuing anything else to the same handler first (or waiting
    twice) would invalidate the pending state.  A pending query abandoned
    when its separate block closes is dropped with the block and can no
    longer be waited for.  All three misuses raise
    :class:`~repro.errors.ScoopError` instead of corrupting the protocol.
    """

    __slots__ = ("_client", "_ref", "_fn", "_feature", "_described", "_box", "_sync",
                 "_consumed")

    def __init__(self, client: "Client", ref: SeparateRef, fn: Callable[[Any], Any],
                 feature: str, described: Optional[dict] = None,
                 box: Optional[ResultBox] = None,
                 sync_request: Optional[SyncRequest] = None) -> None:
        self._client = client
        self._ref = ref
        self._fn = fn
        self._feature = feature
        #: what ``fn`` literally is, as the backend's query hooks take it
        #: (client-executed queries only: a packaged one is already shipped)
        self._described = described
        self._box = box
        self._sync = sync_request
        self._consumed = False

    def _consume(self) -> None:
        handler = self._ref.handler
        if self._consumed:
            raise ScoopError(
                f"the result of pending query {self._feature!r} on handler "
                f"{handler.name!r} has already been consumed")
        self._consumed = True
        if self._box is None:
            pending = self._client._pending_queries
            if pending.get(handler) is not self:  # not pop: another one may be pending now
                raise ScoopError(
                    f"pending query {self._feature!r} on handler {handler.name!r} was "
                    "abandoned when its separate block closed")
            del pending[handler]

    def _outcome(self) -> Any:
        """The result of a body that rode its own sync (a wire queue)."""
        value, error = self._sync.outcome
        if error is not None:
            raise error
        return self._traced(value)

    def _traced(self, value: Any) -> Any:
        """Record that the (client-executed) body ran; pass its value on."""
        client, handler = self._client, self._ref.handler
        if client.tracer.enabled:
            client.tracer.record("exec-client", handler.name, client=client.name,
                                 feature=self._feature, block=client.queue_for(handler).block_id)
        return value

    def wait(self) -> Any:
        """Block for (and return) the query's result."""
        self._consume()
        if self._box is not None:
            return self._box.wait()
        client, sync = self._client, self._sync
        if sync is not None:
            sync.release.wait()
            client._finish_sync(self._ref)
            if sync.outcome is not None:
                return self._outcome()
        # synced, body still to run: where the backend places it (Section
        # 3.2: in memory, right here on the client)
        return self._traced(client.backend.execute_synced_query(
            client, self._ref, self._fn, **self._described))

    async def wait_async(self) -> Any:
        """Awaitable twin of :meth:`wait` (asyncio-capable backends only)."""
        self._consume()
        if self._box is not None:
            return await self._box.wait_async()
        client, sync = self._client, self._sync
        if sync is not None:
            await sync.release.wait_async()
            client._finish_sync(self._ref)
            if sync.outcome is not None:
                return self._outcome()
        # a backend whose query bodies cross a socket awaits the round trip
        return self._traced(await client.backend.execute_synced_query_async(
            client, self._ref, self._fn, **self._described))


class Client:
    """Per-thread client state: reservation stacks, queue cache, request ops."""

    def __init__(
        self,
        config: QsConfig,
        counters: Optional[Counters] = None,
        name: Optional[str] = None,
        tracer: "Tracer | NullTracer | None" = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self.config = config
        self.counters = counters or Counters()
        self.name = name or threading.current_thread().name
        # explicit None check: an empty Tracer has len() == 0 and must not be
        # mistaken for "no tracer"
        self.tracer = tracer if tracer is not None else NullTracer()
        #: execution backend supplying wait events and wake-up notifications
        self.backend = backend if backend is not None else ThreadedBackend()
        #: stack of live reservations per handler (innermost last), so nested
        #: separate blocks on the same handler behave like the formal model
        #: (lookup uses the *last* occurrence).
        self._reservations: Dict[Handler, List[Reservation]] = {}
        #: cache of private queues per handler (Section 3.2)
        self._pq_cache: Dict[Handler, List[PrivateQueue]] = {}
        #: queries issued (sync sent) but not yet waited for, per handler —
        #: logging anything else to such a handler would corrupt the
        #: client-executed-query protocol, so the request ops reject it
        self._pending_queries: Dict[Handler, "PendingQuery"] = {}

    # ------------------------------------------------------------------
    # reservations
    # ------------------------------------------------------------------
    def reserve(self, handlers: Sequence[Handler]) -> List[Reservation]:
        """Reserve ``handlers`` (a single separate block, possibly multi)."""
        if not handlers:
            raise ReservationError("a separate block must reserve at least one handler")
        unique: List[Handler] = []
        for handler in handlers:
            if handler in unique:
                raise ReservationError(f"handler {handler.name!r} reserved twice in one block")
            unique.append(handler)

        reservations: List[Reservation] = []
        if not self.config.use_qoq:
            # Original SCOOP: take the handler locks for the whole block.
            # Locks are acquired in a canonical (creation) order so the
            # runtime itself never deadlocks on a *single* multi-reservation;
            # nested blocks can of course still deadlock, which is the
            # behaviour the paper discusses in Section 2.5 (see the
            # semantics explorer).
            for handler in sorted(unique, key=lambda h: h.seq):
                acquired = handler.reservation_lock.acquire(blocking=False)
                if not acquired:
                    self.counters.bump("lock_waits")
                    handler.reservation_lock.acquire()
                self.counters.bump("lock_acquisitions")

        queues = [self._obtain_private_queue(handler) for handler in unique]

        if len(unique) > 1:
            self.counters.bump("multi_reservations")
            # Section 3.3: insert every private queue atomically with respect
            # to other multi-reservations by holding each handler's spinlock.
            ordered = sorted(range(len(unique)), key=lambda i: unique[i].seq)
            for i in ordered:
                unique[i].spinlock.acquire()
            try:
                for handler, queue in zip(unique, queues):
                    handler.qoq.enqueue(queue)
            finally:
                for i in reversed(ordered):
                    unique[i].spinlock.release()
        else:
            unique[0].qoq.enqueue(queues[0])
        for handler in unique:
            self.backend.notify_handler(handler)

        for handler, queue in zip(unique, queues):
            reservation = Reservation(handler, queue, holds_lock=not self.config.use_qoq)
            self._reservations.setdefault(handler, []).append(reservation)
            reservations.append(reservation)
            self.tracer.record("reserve", handler.name, client=self.name, block=queue.block_id)
        return reservations

    def release(self, reservations: Sequence[Reservation]) -> None:
        """Close a separate block: append END markers and undo bookkeeping."""
        for reservation in reservations:
            handler = reservation.handler
            stack = self._reservations.get(handler, [])
            if not stack or stack[-1] is not reservation:
                raise ReservationError(
                    f"separate blocks must be released innermost-first (handler {handler.name!r})"
                )
            # a pending issued query dies with its block (the handler serves
            # what was issued and resumes past it at the END marker)
            self._pending_queries.pop(handler, None)
            reservation.private_queue.enqueue_end()
            self.backend.notify_handler(handler)
            self.tracer.record("release", handler.name, client=self.name,
                               block=reservation.private_queue.block_id)
            handler.owner.revoke_sync_access(threading.current_thread())
            stack.pop()
            if not stack:
                del self._reservations[handler]
            if self.config.private_queue_cache:
                self._pq_cache.setdefault(handler, []).append(reservation.private_queue)
            else:
                reservation.private_queue.close()
        if not self.config.use_qoq:
            for reservation in sorted(reservations, key=lambda r: r.handler.seq, reverse=True):
                if reservation.holds_lock:
                    reservation.handler.reservation_lock.release()

    def _obtain_private_queue(self, handler: Handler) -> PrivateQueue:
        if self.config.private_queue_cache:
            cache = self._pq_cache.get(handler)
            if cache:
                queue = cache.pop()
                queue.reset_for_reuse()
                queue.block_id = self.tracer.next_block_id()
                return queue
        queue = self.backend.create_private_queue(handler, self.counters)
        queue.client_name = self.name
        queue.block_id = self.tracer.next_block_id()
        return queue

    def close(self) -> None:
        """Give up the cached private queues: this client will not run again.

        Called when a spawned client's thread or task finishes.  In-memory
        queues just become garbage; a wire queue closes its connection
        (and with it the worker-side reader thread), so short-lived
        clients do not accumulate descriptors until shutdown.
        """
        for queues in self._pq_cache.values():
            for queue in queues:
                queue.close()
        self._pq_cache.clear()

    def queue_for(self, handler: Handler) -> PrivateQueue:
        """The private queue of the innermost live reservation of ``handler``."""
        stack = self._reservations.get(handler)
        if not stack:
            raise NotReservedError(
                f"handler {handler.name!r} is not reserved by client {self.name!r}; "
                "wrap the calls in a separate block"
            )
        return stack[-1].private_queue

    def reserved(self, handler: Handler) -> bool:
        return bool(self._reservations.get(handler))

    def _check_no_pending_query(self, handler: Handler) -> None:
        if handler in self._pending_queries:
            raise ScoopError(
                f"a query issued on handler {handler.name!r} is still pending; wait for "
                "its result (PendingQuery.wait / await wait_async) before logging further "
                "requests to that handler")

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def call(self, ref: SeparateRef, method: str, *args: Any, **kwargs: Any) -> None:
        """Log an asynchronous call of ``method`` on the separate object."""
        handler = ref.handler
        self._check_no_pending_query(handler)
        queue = self.queue_for(handler)
        args, kwargs = prepare_arguments(args, kwargs, self.counters)
        request = CallRequest(
            fn=operator.methodcaller(method, *args, **kwargs),
            args=(ref._raw(),),
            payload_bytes=_payload_size(args, kwargs),
            feature=method,
            block=queue.block_id,
            call_args=args,
            call_kwargs=dict(kwargs),
        )
        # logging an asynchronous call invalidates any synchronous control we
        # held over the handler (the handler will become busy again)
        handler.owner.revoke_sync_access(threading.current_thread())
        self.tracer.record("log-call", handler.name, client=self.name,
                           feature=method, block=queue.block_id)
        queue.enqueue_call(request)
        self.backend.notify_handler(handler)

    def call_function(self, ref: SeparateRef, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Asynchronously apply ``fn(raw_object, *args, **kwargs)`` on the handler."""
        handler = ref.handler
        self._check_no_pending_query(handler)
        queue = self.queue_for(handler)
        args, kwargs = prepare_arguments(args, kwargs, self.counters)
        feature = getattr(fn, "__name__", "<callable>")
        request = CallRequest(fn=fn, args=(ref._raw(), *args), kwargs=dict(kwargs),
                              payload_bytes=_payload_size(args, kwargs), feature=feature,
                              block=queue.block_id)
        handler.owner.revoke_sync_access(threading.current_thread())
        self.tracer.record("log-call", handler.name, client=self.name,
                           feature=feature, block=queue.block_id)
        queue.enqueue_call(request)
        self.backend.notify_handler(handler)

    def query(self, ref: SeparateRef, method: str, *args: Any, **kwargs: Any) -> Any:
        """Issue a synchronous query and return its result."""
        return self._issue(ref, operator.methodcaller(method, *args, **kwargs),
                           args, kwargs, method).wait()

    def issue_query(self, ref: SeparateRef, method: str, *args: Any, **kwargs: Any) -> PendingQuery:
        """Issue a synchronous query without waiting for its result.

        Returns a :class:`PendingQuery` whose ``wait()`` (or awaited
        ``wait_async()``) produces the result.  Issuing several queries to
        *different* handlers before waiting is how scatter-gather overlaps
        per-shard work; at most one query may be pending per handler.
        """
        return self._issue(ref, operator.methodcaller(method, *args, **kwargs),
                           args, kwargs, feature=method)

    def query_function(self, ref: SeparateRef, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Synchronous query applying ``fn(raw_object, *args, **kwargs)``."""
        return self.issue_query_function(ref, fn, *args, **kwargs).wait()

    def issue_query_function(self, ref: SeparateRef, fn: Callable[..., Any],
                             *args: Any, **kwargs: Any) -> PendingQuery:
        """:meth:`issue_query` for ``fn(raw_object, *args, **kwargs)``."""
        def wrapped(obj):
            return fn(obj, *args, **kwargs)
        return self._issue(ref, wrapped, args, kwargs,
                           feature=getattr(fn, "__name__", "<callable>"), raw_fn=fn)

    def _issue(self, ref: SeparateRef, fn: Callable[[Any], Any], args: tuple, kwargs: dict,
               feature: str, raw_fn: Optional[Callable[..., Any]] = None) -> PendingQuery:
        """Put a query on the handler's queue; every wait is the caller's.

        ``fn`` is the one-argument body.  What it literally is travels
        along for transports that ship data, not closures: ``getattr(obj,
        feature)(*args, **kwargs)``, or ``raw_fn(obj, *args, **kwargs)``
        when ``raw_fn`` is given.
        """
        handler = ref.handler
        self._check_no_pending_query(handler)
        queue = self.queue_for(handler)
        self.counters.bump("queries")
        self.tracer.record("log-query", handler.name, client=self.name,
                           feature=feature, block=queue.block_id)
        if not self.config.client_executed_queries:
            # packaged query: the request is on the queue, FIFO keeps it
            # ordered against anything logged later — nothing to guard
            request = CallRequest(fn=fn, args=(ref._raw(),), feature=feature,
                                  payload_bytes=_payload_size(args, kwargs), block=queue.block_id,
                                  result=ResultBox(event=self.backend.create_event()),
                                  call_args=args, call_kwargs=kwargs, raw_fn=raw_fn)
            box = queue.enqueue_query(request)
            self.backend.notify_handler(handler)
            return PendingQuery(self, ref, fn, feature, box=box)
        described = {"feature": feature if raw_fn is None else None,
                     "args": args, "kwargs": kwargs, "raw_fn": raw_fn}
        pending = PendingQuery(self, ref, fn, feature, described)
        if not self._sync_elided(handler, queue):
            # allocated first: as little as possible between hand-off and wait
            pending._sync = self.backend.enqueue_query_sync(queue, ref, fn, described)
            self.backend.notify_handler(handler)
        # client-executed query: until the wait the handler must stay parked
        # on this queue, so further requests are rejected until the result
        # is consumed (see _check_no_pending_query)
        self._pending_queries[handler] = pending
        return pending

    # -- pieces ----------------------------------------------------------
    def sync(self, ref: SeparateRef) -> bool:
        """Ensure the handler is parked on this client's private queue.

        Returns ``True`` if a sync round-trip was actually performed and
        ``False`` if it was elided by dynamic sync coalescing.
        """
        request = self._begin_sync(ref)
        if request is None:
            return False
        request.release.wait()
        self._finish_sync(ref)
        return True

    def _begin_sync(self, ref: SeparateRef) -> Optional[SyncRequest]:
        """Send the SYNC marker (or elide it); the wait is left to the caller.

        The issue/wait split exists so the blocking client and the awaitable
        :class:`~repro.core.async_api.AsyncClient` share every protocol step
        — only *how* the release event is waited on differs.  Returns
        ``None`` when dynamic sync coalescing elided the round trip.
        """
        handler = ref.handler
        self._check_no_pending_query(handler)
        queue = self.queue_for(handler)
        if self._sync_elided(handler, queue):
            return None
        request = queue.enqueue_sync(SyncRequest(release=self.backend.create_event()))
        self.backend.notify_handler(handler)
        return request

    def _sync_elided(self, handler: Handler, queue: PrivateQueue) -> bool:
        """Dynamic sync coalescing (Section 3.4.1): already parked on ``queue``?"""
        if self.config.dynamic_sync_coalescing and queue.synced:
            self.counters.bump("syncs_elided")
            self.tracer.record("sync-elided", handler.name, client=self.name, block=queue.block_id)
            return True
        return False

    def _finish_sync(self, ref: SeparateRef) -> None:
        """Bookkeeping once the sync release has been observed."""
        handler = ref.handler
        queue = self.queue_for(handler)
        queue.synced = True
        handler.owner.grant_sync_access(threading.current_thread())
        self.tracer.record("sync", handler.name, client=self.name, block=queue.block_id)

    def presynced_query(self, ref: SeparateRef, fn: Callable[..., Any]) -> Any:
        """Run a query whose sync was removed by the *static* pass.

        The caller (generated code / :mod:`repro.core.transfer`) is asserting
        that the handler is already synced at this program point, so neither a
        sync message nor a dynamic check is issued.
        """
        self.counters.bump("queries")
        result = self.backend.execute_synced_query(self, ref, fn)
        if self.tracer.enabled:
            queue = self.queue_for(ref.handler)
            self.tracer.record("exec-client", ref.handler.name, client=self.name,
                               feature=getattr(fn, "__name__", "<callable>"), block=queue.block_id)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Client({self.name!r}, reservations={sum(len(v) for v in self._reservations.values())})"
