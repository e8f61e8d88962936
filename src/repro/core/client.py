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
  A handler that was shut down is refused before anything is enqueued.
  With queue-of-queues, dynamic coalescing and client-executed queries all
  on, a single-handler block's in-memory queue only takes its ticket at
  reservation and is filed with the block's first request; a block that
  never files one ends by passing its ticket on (``QueueOfQueues.pass_unfiled``).
* ``call``   — package an asynchronous call and append it to the private
  queue (rule *call*, Fig. 9).  A request has one shape, a
  :class:`~repro.queues.private_queue.CallRequest`: ``fn`` is a feature
  name, looked up on the target when the call runs, or a callable applied
  as ``fn(target, *args, **kwargs)`` (``apply``/``compute``).  The
  request API's own parameters are positional-only, so a feature's
  keywords may have any name.
* ``query``  — *issue*, then *wait* (:class:`PendingQuery`; the blocking
  ``query`` and the awaitable one differ only in the wait).  Issue either
  ships a packaged query (the original rule) or, with the client-executed
  optimization (Fig. 10b), asks the private queue what an unsynced query
  puts on it (``enqueue_query_sync``): in memory the SYNC marker, the body
  then running locally after the release; on a wire queue the body itself,
  which the handler reaches in FIFO order exactly where the marker would
  have stood, so its one reply is release and result both.  Dynamic sync
  coalescing (Section 3.4.1) skips the marker when the handler is already
  parked on this client's queue, or waits idle for this very block: the
  queue is not filed yet, its ticket is the handler's ``served`` watermark,
  and no other thread client runs.  The body alone then runs where the
  queue places it (``invoke``).

After every enqueue — each filed reservation and each logged request — the
client calls its backend's ``notify_handler``: the one way an idle handler is
woken.  A block that files nothing wakes nobody, unless the handler already
holds the next block when it passes its ticket on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.backends.base import ExecutionBackend
from repro.backends.threaded import ThreadedBackend
from repro.config import QsConfig
from repro.core.expanded import prepare_arguments
from repro.core.handler import Handler
from repro.core.region import SeparateRef, calling_thread
from repro.errors import HandlerShutdownError, NotReservedError, ReservationError, ScoopError
from repro.queues.private_queue import (
    CallRequest, PrivateQueue, ResultBox, SyncRequest, feature_name)
from repro.util.counters import Counters
from repro.util.tracing import NullTracer, Tracer


def _shut_down(handler: Handler) -> HandlerShutdownError:
    return HandlerShutdownError(
        f"handler {handler.name!r} has been shut down and cannot be reserved")


#: types charged one word without further inspection (the scalar fast path)
_WORD_SIZED = frozenset({int, float, bool, complex, type(None)})


def _payload_size(args: tuple, kwargs: dict) -> int:
    """Rough payload size estimate used for bytes-copied accounting.

    Intentionally conservative and cheap, one pass: it charges the common
    scalars a word at once, recognises numpy arrays, byte strings and plain
    containers, and charges a word for anything else (references, separate
    refs).
    """
    total = 0
    for value in (*args, *kwargs.values()) if kwargs else args:
        cls = type(value)
        if cls in _WORD_SIZED:
            total += 8
        elif (cls.__dict__.get("nbytes") is None  # avoid arbitrary __getattr__
                and hasattr(cls, "nbytes") and cls.__module__.startswith("numpy")):
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
      it is the queue's choice (``enqueue_query_sync``): in memory the
      SYNC marker alone, so scattered *syncs* overlap and each body runs on
      the waiting side after its release; on a wire queue the body itself,
      so the shard-side *bodies* overlap and the release carries the result;
    * nothing, when dynamic coalescing elided the sync: the body runs at
      wait time through the queue's ``invoke``.

    It keeps the private queue it was issued on, so the wait looks nothing up.

    At most one query may be pending per handler, and each result may be
    waited for once — waiting is what restores the client's synchronous
    control, so issuing anything else to the same handler first (or waiting
    twice) would invalidate the pending state.  A pending query abandoned
    when its separate block closes is dropped with the block and can no
    longer be waited for.  All three misuses raise
    :class:`~repro.errors.ScoopError` instead of corrupting the protocol.
    """

    __slots__ = ("_client", "_ref", "_queue", "_fn", "_args", "_kwargs", "_box",
                 "_sync", "_consumed")

    def __init__(self, client: "Client", ref: SeparateRef, queue: PrivateQueue, fn: Any,
                 args: tuple, kwargs: dict, box: Optional[ResultBox] = None) -> None:
        self._client = client
        self._ref = ref
        self._queue = queue
        #: the query as the queue's ``invoke`` applies it (a packaged one
        #: already travelled in its request and only waits on ``box``)
        self._fn = fn
        self._args = args
        self._kwargs = kwargs
        self._box = box
        self._sync: Optional[SyncRequest] = None
        self._consumed = False

    def _consume(self) -> None:
        handler = self._ref.handler
        if self._consumed:
            raise ScoopError(
                f"the result of pending query {feature_name(self._fn)!r} on handler "
                f"{handler.name!r} has already been consumed")
        self._consumed = True
        if self._box is None:
            pending = self._client._pending_queries
            if pending.get(handler) is not self:  # not pop: another one may be pending now
                raise ScoopError(
                    f"pending query {feature_name(self._fn)!r} on handler {handler.name!r} was "
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
                                 feature=feature_name(self._fn), block=self._queue.block_id)
        return value

    def wait(self) -> Any:
        """Block for (and return) the query's result."""
        self._consume()
        if self._box is not None:
            return self._box.wait()
        queue, sync = self._queue, self._sync
        if sync is not None:
            sync.release.wait()
            self._client._finish_sync(self._ref.handler, queue)
            if sync.outcome is not None:
                return self._outcome()
        # synced, body still to run: where the queue places it (Section
        # 3.2: in memory, right here on the client)
        return self._traced(queue.invoke(self._ref._raw(), self._fn, self._args, self._kwargs))

    async def wait_async(self) -> Any:
        """Awaitable twin of :meth:`wait` (asyncio-capable backends only)."""
        self._consume()
        if self._box is not None:
            return await self._box.wait_async()
        queue, sync = self._queue, self._sync
        if sync is not None:
            await sync.release.wait_async()
            self._client._finish_sync(self._ref.handler, queue)
            if sync.outcome is not None:
                return self._outcome()
        # a queue whose query bodies cross a socket awaits the round trip
        return self._traced(await queue.invoke_async(self._ref._raw(), self._fn,
                                                     self._args, self._kwargs))


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
        self.name = name or calling_thread().name
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
        #: whether a single-handler block files its queue with its first request
        self._defers_filing = (config.use_qoq and config.dynamic_sync_coalescing
                               and config.client_executed_queries)

    # ------------------------------------------------------------------
    # reservations
    # ------------------------------------------------------------------
    def reserve(self, handlers: Sequence[Handler]) -> List[Reservation]:
        """Reserve ``handlers`` (a single separate block, possibly multi)."""
        if len(handlers) == 1:
            return [self.reserve_one(handlers[0])]
        if not handlers:
            raise ReservationError("a separate block must reserve at least one handler")
        unique: List[Handler] = []
        for handler in handlers:
            if handler in unique:
                raise ReservationError(f"handler {handler.name!r} reserved twice in one block")
            # refused before anything is enqueued or locked: a multi-handler
            # block must not leave its live handlers holding a reservation
            if handler.qoq.closed:
                raise _shut_down(handler)
            unique.append(handler)

        if not self.config.use_qoq:
            self._lock(unique)
        queues = [self._obtain_private_queue(handler) for handler in unique]

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
        for handler in unique:
            self.backend.notify_handler(handler)
        return [self._hold(handler, queue) for handler, queue in zip(unique, queues)]

    def reserve_one(self, handler: Handler) -> Reservation:
        """Reserve one handler: :meth:`reserve`'s steps, in its order, for one.

        This is every single-handler separate block's path, so it takes no
        list, no sort and no spinlock.
        """
        if handler.qoq.closed:
            raise _shut_down(handler)
        if not self.config.use_qoq:
            self._lock((handler,))
        queue = self._obtain_private_queue(handler)
        if self._defers_filing and isinstance(queue, PrivateQueue):
            queue.defer_filing(handler.qoq, handler.qoq.issue())
        else:
            handler.qoq.enqueue(queue)
            self.backend.notify_handler(handler)
        return self._hold(handler, queue)

    def _lock(self, handlers: Sequence[Handler]) -> None:
        """Original SCOOP: take the handler locks for the whole block.

        Locks are acquired in a canonical (creation) order so the runtime
        itself never deadlocks on a *single* multi-reservation; nested
        blocks can of course still deadlock, which is the behaviour the
        paper discusses in Section 2.5 (see the semantics explorer).
        """
        for handler in sorted(handlers, key=lambda h: h.seq):
            acquired = handler.reservation_lock.acquire(blocking=False)
            if not acquired:
                self.counters.bump("lock_waits")
                handler.reservation_lock.acquire()
            self.counters.bump("lock_acquisitions")

    def _hold(self, handler: Handler, queue: PrivateQueue) -> Reservation:
        """Push the reservation of ``handler`` on its stack (the block is live)."""
        reservation = Reservation(handler, queue, not self.config.use_qoq)
        self._reservations.setdefault(handler, []).append(reservation)
        if self.tracer.enabled:
            self.tracer.record("reserve", handler.name, client=self.name, block=queue.block_id)
        return reservation

    def release(self, reservations: Sequence[Reservation]) -> bool:
        """Close a separate block: append END markers and undo bookkeeping.

        Returns True when the block ended inline, having handed its handler
        nothing (see ``ExecutionBackend.block_ended_inline``).
        """
        if len(reservations) == 1:
            return self.release_one(reservations[0])
        inline = False
        for reservation in reservations:
            inline = self._end(reservation) or inline
        if not self.config.use_qoq:
            for reservation in sorted(reservations, key=lambda r: r.handler.seq, reverse=True):
                if reservation.holds_lock:
                    reservation.handler.reservation_lock.release()
        if inline:
            self.backend.block_ended_inline()
        return inline

    def release_one(self, reservation: Reservation) -> bool:
        """Close a single-handler block: :meth:`release`'s steps for one."""
        inline = self._end(reservation)
        if reservation.holds_lock:
            reservation.handler.reservation_lock.release()
        if inline:
            self.backend.block_ended_inline()
        return inline

    def _end(self, reservation: Reservation) -> bool:
        """End one handler's part of a block; True when it ended inline."""
        handler = reservation.handler
        stack = self._reservations.get(handler)
        if not stack or stack[-1] is not reservation:
            raise ReservationError(
                f"separate blocks must be released innermost-first (handler {handler.name!r})"
            )
        # a pending issued query dies with its block (the handler serves
        # what was issued and resumes past it at the END marker)
        self._pending_queries.pop(handler, None)
        # given up while the handler still serves this block: nobody else
        # can be granted before the END (or the ticket passed on) below
        handler.owner.revoke_sync_access(calling_thread())
        queue = reservation.private_queue
        qoq = queue.pending_qoq
        if qoq is not None and qoq.served == queue.ticket:
            # never filed, and the handler waits for this very ticket
            queue.pending_qoq = None
            inline = True
            if qoq.pass_unfiled(queue.ticket):
                self.backend.notify_handler(handler)
        else:
            inline = False
            queue.enqueue_end()  # files a queue still unfiled first
            self.backend.notify_handler(handler)
        if self.tracer.enabled:
            self.tracer.record("release", handler.name, client=self.name,
                               block=queue.block_id)
        stack.pop()
        if not stack:
            del self._reservations[handler]
        if self.config.private_queue_cache:
            self._pq_cache.setdefault(handler, []).append(queue)
        else:
            queue.close()
        return inline

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

    @staticmethod
    def _still_pending(handler: Handler) -> ScoopError:
        """Raised by a request to a handler whose issued query is not waited for."""
        return ScoopError(
            f"a query issued on handler {handler.name!r} is still pending; wait for "
            "its result (PendingQuery.wait / await wait_async) before logging further "
            "requests to that handler")

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def call(self, ref: SeparateRef, fn: Any, /, *args: Any, **kwargs: Any) -> None:
        """Log an asynchronous call of ``fn`` on the separate object.

        ``fn`` is a feature name, looked up on the object when the call
        runs, or a callable applied as ``fn(obj, *args, **kwargs)``.
        """
        handler = ref.handler
        if handler in self._pending_queries:
            raise self._still_pending(handler)
        queue = self.queue_for(handler)
        args, kwargs = prepare_arguments(args, kwargs, self.counters)
        request = CallRequest(fn, ref._raw(), args, kwargs, None,
                              _payload_size(args, kwargs), queue.block_id)
        # logging an asynchronous call invalidates any synchronous control we
        # held over the handler (the handler will become busy again)
        handler.owner.revoke_sync_access(calling_thread())
        if self.tracer.enabled:
            self.tracer.record("log-call", handler.name, client=self.name,
                               feature=feature_name(fn), block=queue.block_id)
        queue.enqueue_call(request)
        self.backend.notify_handler(handler)

    def query(self, ref: SeparateRef, fn: Any, /, *args: Any, **kwargs: Any) -> Any:
        """Issue a synchronous query of ``fn`` (as :meth:`call`) and return its result."""
        return self._issue(ref, fn, args, kwargs).wait()

    def issue_query(self, ref: SeparateRef, fn: Any, /, *args: Any,
                    **kwargs: Any) -> PendingQuery:
        """Issue a synchronous query without waiting for its result.

        Returns a :class:`PendingQuery` whose ``wait()`` (or awaited
        ``wait_async()``) produces the result.  Issuing several queries to
        *different* handlers before waiting is how scatter-gather overlaps
        per-shard work; at most one query may be pending per handler.
        """
        return self._issue(ref, fn, args, kwargs)

    def _issue(self, ref: SeparateRef, fn: Any, args: tuple, kwargs: dict) -> PendingQuery:
        """Put a query on the handler's queue; every wait is the caller's."""
        handler = ref.handler
        if handler in self._pending_queries:
            raise self._still_pending(handler)
        queue = self.queue_for(handler)
        self.counters.bump("queries")
        if self.tracer.enabled:
            self.tracer.record("log-query", handler.name, client=self.name,
                               feature=feature_name(fn), block=queue.block_id)
        if not self.config.client_executed_queries:
            # packaged query: the request is on the queue, FIFO keeps it
            # ordered against anything logged later — nothing to guard
            request = CallRequest(fn, ref._raw(), args, kwargs,
                                  ResultBox(event=self.backend.create_event()),
                                  _payload_size(args, kwargs), queue.block_id)
            box = queue.enqueue_query(request)
            self.backend.notify_handler(handler)
            return PendingQuery(self, ref, queue, fn, args, kwargs, box)
        pending = PendingQuery(self, ref, queue, fn, args, kwargs)
        if not self._sync_elided(handler, queue):
            # allocated first: as little as possible between hand-off and wait
            pending._sync = queue.enqueue_query_sync(ref._raw(), fn, args, kwargs)
            self.backend.notify_handler(handler)
        # client-executed query: until the wait the handler must stay parked
        # on this queue, so further requests are rejected until the result
        # is consumed (see _still_pending)
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
        self._finish_sync(ref.handler, self.queue_for(ref.handler))
        return True

    def _begin_sync(self, ref: SeparateRef) -> Optional[SyncRequest]:
        """Send the SYNC marker (or elide it); the wait is left to the caller.

        The issue/wait split exists so the blocking client and the awaitable
        :class:`~repro.core.async_api.AsyncClient` share every protocol step
        — only *how* the release event is waited on differs.  Returns
        ``None`` when dynamic sync coalescing elided the round trip.
        """
        handler = ref.handler
        if handler in self._pending_queries:
            raise self._still_pending(handler)
        queue = self.queue_for(handler)
        if self._sync_elided(handler, queue):
            return None
        request = queue.enqueue_sync(SyncRequest(release=self.backend.create_event()))
        self.backend.notify_handler(handler)
        return request

    def _sync_elided(self, handler: Handler, queue: PrivateQueue) -> bool:
        """Dynamic sync coalescing (Section 3.4.1): already parked on ``queue``?

        A handler is just as parked for a block whose queue is not filed
        yet when the block's ticket is its ``served`` watermark: it has
        served every block before and waits for this one.  The client then
        holds synchronous control as after a real sync.  Only while at most
        one thread client runs, though: a thread whose blocks never wait
        keeps the interpreter lock for a whole switch interval, so clients
        polling next to it would starve (the paper's chameneos and condition
        tasks ran 10-30 % slower); with others running, the block hands off
        as before.
        """
        if not self.config.dynamic_sync_coalescing:
            return False
        if not queue.synced:
            qoq, runtime = queue.pending_qoq, self.backend.runtime
            if (qoq is None or qoq.served != queue.ticket
                    or (runtime is not None and runtime.running_clients > 1)):
                return False
            queue.synced = True
            handler.owner.grant_sync_access(calling_thread())
        self.counters.bump("syncs_elided")
        if self.tracer.enabled:
            self.tracer.record("sync-elided", handler.name, client=self.name,
                               block=queue.block_id)
        return True

    def _finish_sync(self, handler: Handler, queue: PrivateQueue) -> None:
        """Bookkeeping once the sync release on ``queue`` has been observed."""
        queue.synced = True
        handler.owner.grant_sync_access(calling_thread())
        if self.tracer.enabled:
            self.tracer.record("sync", handler.name, client=self.name, block=queue.block_id)

    def presynced_query(self, ref: SeparateRef, fn: Any, /, *args: Any, **kwargs: Any) -> Any:
        """Run a query whose sync was removed by the *static* pass.

        The caller (generated code / :mod:`repro.core.transfer`) is asserting
        that the handler is already synced at this program point, so neither a
        sync message nor a dynamic check is issued.
        """
        self.counters.bump("queries")
        queue = self.queue_for(ref.handler)
        result = queue.invoke(ref._raw(), fn, args, kwargs)
        if self.tracer.enabled:
            self.tracer.record("exec-client", ref.handler.name, client=self.name,
                               feature=feature_name(fn), block=queue.block_id)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Client({self.name!r}, reservations={sum(len(v) for v in self._reservations.values())})"
