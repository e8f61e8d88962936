"""Private queues: the per-client call queues of the SCOOP/Qs runtime.

A private queue is the channel a single client shares with a single handler
(Section 2.3, Fig. 4).  The client enqueues three kinds of entries:

* :class:`CallRequest` -- a packaged asynchronous call (the libffi closure of
  Fig. 9 in the paper becomes a feature name or a callable, its target and
  the captured arguments here; :func:`apply_call` applies either).  A call
  may optionally carry a :class:`ResultBox`, which is how the *unoptimized*
  query protocol ships a query to the handler and waits for its result.
* :class:`SyncRequest` -- the SYNC marker of the optimized query protocol
  (Fig. 10b).  The handler releases the waiting client when it reaches the
  marker; the client then runs the query body itself.
* :class:`EndMarker` (the singleton ``END``) -- placed by the client at the
  end of its separate block (rule *separate*), telling the handler to move on
  to the next private queue (rule *end*).

The queue also carries the dynamic sync-coalescing state of Section 3.4.1:
``synced`` records whether the handler is currently parked at the head of
this (empty) private queue, in which case a further sync is unnecessary.

A single-handler block files its queue into the handler's queue-of-queues
with its first request, not at reservation (:meth:`PrivateQueue.defer_filing`;
a wire queue defers its ``open`` frame the same way).  Until then
``pending_qoq`` holds the queue-of-queues and ``ticket`` the block's FIFO
position, which is how the client tells that an idle handler is already
waiting for exactly this block.

The query path
--------------
What an unsynced client-executed query puts on the queue, and where the
body of a synced one runs, is the queue's decision too: here the SYNC
marker (:meth:`PrivateQueue.enqueue_query_sync`) and the body run on the
calling client (:meth:`PrivateQueue.invoke`).  A wire queue answers both
with the same methods, shipping the body as its own sync.

Waking a consumer that may be asleep is not the queue's business: after
every enqueue the client calls its backend's ``notify_handler``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import QueryFailedError
from repro.queues.fifo import FifoQueue
from repro.util.counters import Counters


class EndMarker:
    """Sentinel closing a private queue (one per separate block)."""

    _instance: "EndMarker | None" = None

    def __new__(cls) -> "EndMarker":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "END"


#: The END request appended when a separate block finishes.
END = EndMarker()


class ResultBox:
    """One-shot slot used to return a query result to a waiting client.

    ``event`` may be any ``threading.Event``-compatible object; execution
    backends supply their own (the sim backend's events wait in virtual
    time) and the default is a plain thread event.
    """

    __slots__ = ("_event", "value", "error")

    def __init__(self, event: Any = None) -> None:
        self._event = event if event is not None else threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None

    def set(self, value: Any) -> None:
        self.value = value
        self._event.set()

    def set_error(self, error: BaseException) -> None:
        self.error = error
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout=timeout):
            raise TimeoutError("query result did not arrive in time")
        if self.error is not None:
            raise QueryFailedError("query raised on the handler") from self.error
        return self.value

    async def wait_async(self) -> Any:
        """Awaitable :meth:`wait` for coroutine clients.

        Requires the box's event to have been created by a backend whose
        events are awaitable (``wait_async``), i.e. the asyncio backend.
        """
        waiter = getattr(self._event, "wait_async", None)
        if waiter is None:
            raise TypeError(
                "this result box is backed by a blocking event; awaitable "
                "queries need an event from the async execution backend")
        await waiter()
        if self.error is not None:
            raise QueryFailedError("query raised on the handler") from self.error
        return self.value

    @property
    def ready(self) -> bool:
        return self._event.is_set()


def apply_call(fn: Any, target: Any, args: Any, kwargs: dict) -> Any:
    """Apply a request's ``fn`` to its ``target``: the one call shape.

    A feature name is looked up on the target when the call runs (the late
    binding of a method call); a callable is applied as
    ``fn(target, *args, **kwargs)``.
    """
    if type(fn) is str:
        return getattr(target, fn)(*args, **kwargs)
    return fn(target, *args, **kwargs)


def feature_name(fn: Any) -> str:
    """What trace events call a request: its feature name, or its callable's."""
    return getattr(fn, "__name__", None) or str(fn)


@dataclass(slots=True)
class CallRequest:
    """A packaged call: the Python analogue of the libffi closure of Fig. 9.

    ``fn`` is a feature name or a callable, applied to ``target`` with
    ``args`` and ``kwargs`` by :func:`apply_call`.  Names and importable
    callables are data a wire codec can carry, so a request crosses a
    process boundary as it is.
    """

    fn: Any
    target: Any = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: Optional[ResultBox] = None
    #: approximate payload size, used only for bytes-copied accounting
    payload_bytes: int = 0
    #: reservation (block) id at logging time; private queues are reused
    #: across blocks, so the id must travel with the request for the
    #: handler-side trace events to attribute executions correctly
    block: "int | None" = None

    def execute(self) -> Any:
        """Apply the packaged call (what the handler does in ``execute_call``)."""
        try:
            value = apply_call(self.fn, self.target, self.args, self.kwargs)
        except BaseException as exc:
            if self.result is None:
                raise
            self.result.set_error(exc)  # propagate to the waiting client
            return None
        if self.result is not None:
            self.result.set(value)
        return value


@dataclass
class SyncRequest:
    """SYNC marker: handler signals ``release`` when it reaches this entry.

    ``outcome`` stays ``None`` in memory: the release says the handler is
    parked and the query body runs on the waiting client.  On a wire queue an
    unsynced query's body travels *as* its sync, so the release is also the
    result: ``(value, error)`` of the body the handler ran at the marker.
    """

    release: threading.Event = field(default_factory=threading.Event)
    outcome: "tuple[Any, BaseException | None] | None" = None

    def fire(self) -> None:
        self.release.set()


Request = "CallRequest | SyncRequest | EndMarker"


class PrivateQueue:
    """SPSC call queue shared by one client and one handler.

    Parameters
    ----------
    handler:
        The owning handler (any object with a ``name``); stored only for
        diagnostics and for the dynamic sync-coalescing bookkeeping.
    counters:
        Runtime counters; ``pq_enqueues`` is bumped on every entry.
    """

    __slots__ = ("handler", "counters", "_queue", "synced", "client_name",
                 "closed_by_client", "block_id", "pending_qoq", "ticket")

    def __init__(self, handler: Any = None, counters: Optional[Counters] = None) -> None:
        self.handler = handler
        self.counters = counters or Counters()
        self._queue: FifoQueue = FifoQueue()
        #: dynamic sync-coalescing flag (Section 3.4.1): True while the
        #: handler is known to be parked at the head of this empty queue.
        self.synced = False
        self.client_name: str | None = None
        self.closed_by_client = False
        #: reservation id of the separate block currently using this queue
        #: (set by the client at reservation time; used by tracing)
        self.block_id: int | None = None
        #: the queue-of-queues this block is still to be filed into, under
        #: ``ticket`` (``None`` once filed, or when filed at reservation)
        self.pending_qoq: Any = None
        self.ticket: int | None = None

    # -- client side ------------------------------------------------------
    def defer_filing(self, qoq: Any, ticket: int) -> None:
        """Hold the block's ``ticket``: the first request files the queue under it."""
        self.pending_qoq = qoq
        self.ticket = ticket

    def _put(self, request: Any) -> None:
        self._queue.put(request)
        qoq = self.pending_qoq
        if qoq is not None:
            # the request goes first: the handler never finds the queue empty
            self.pending_qoq = None
            qoq.enqueue(self, self.ticket)

    def enqueue_call(self, request: CallRequest) -> None:
        """Log an asynchronous call (rule *call*).  Invalidates ``synced``."""
        self.counters.bump("pq_enqueues")
        self.counters.bump("async_calls")
        if request.payload_bytes:
            self.counters.add("bytes_copied", request.payload_bytes)
        self.synced = False
        self._put(request)

    def enqueue_query(self, request: CallRequest) -> ResultBox:
        """Ship a packaged query to the handler (the *unoptimized* protocol).

        The handler executes the call and fills the result box; the caller is
        expected to ``wait()`` on the returned box.
        """
        if request.result is None:
            request.result = ResultBox()
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")
        self.synced = False
        self._put(request)
        return request.result

    def enqueue_sync(self, request: Optional[SyncRequest] = None) -> SyncRequest:
        """Send the SYNC marker (optimized query protocol, Fig. 10b).

        The caller may supply a prebuilt :class:`SyncRequest` whose release
        event was created by the execution backend (so the wait happens in
        the backend's notion of time); by default a plain thread event is
        used.
        """
        if request is None:
            request = SyncRequest()
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")
        self._put(request)
        return request

    def enqueue_query_sync(self, handle: Any, fn: Any, args: tuple,
                           kwargs: dict) -> SyncRequest:
        """Put an unsynced client-executed query on the queue (Fig. 10b).

        In shared memory that is the SYNC marker alone, released by an event
        of the handler's backend (so the wait happens in the backend's
        notion of time); the body runs on the waiting client afterwards
        (:meth:`invoke`).  A wire queue ships the body in the marker's place.
        """
        return self.enqueue_sync(SyncRequest(release=self.handler.backend.create_event()))

    def invoke(self, handle: Any, fn: Any, args: tuple, kwargs: dict) -> Any:
        """Run a client-executed query body once the handler is synced.

        The handler is parked on this queue, so the body runs right here on
        the client against the raw object ``handle`` (:func:`apply_call`).
        """
        return apply_call(fn, handle, args, kwargs)

    async def invoke_async(self, handle: Any, fn: Any, args: tuple, kwargs: dict) -> Any:
        """Awaitable :meth:`invoke`: nothing here can block, so the same call."""
        return self.invoke(handle, fn, args, kwargs)

    def enqueue_end(self) -> None:
        """Close this block's requests (rule *separate*'s trailing END)."""
        self.counters.bump("pq_enqueues")
        self.closed_by_client = True
        self.synced = False
        self._put(END)

    # -- handler side ------------------------------------------------------
    def dequeue(self, timeout: Optional[float] = None):
        """Blocking dequeue used by the handler loop.

        Returns ``None`` if nothing arrived within ``timeout`` (the handler
        loop treats that as "keep waiting" unless it is shutting down).
        """
        return self._queue.get(timeout=timeout)

    def dequeue_batch(self, max_items: int, timeout: Optional[float] = None) -> list:
        """Drain up to ``max_items`` requests in one go (the batched fast path).

        The single blocking acquisition happens only for the *first* request;
        the rest are popped non-blocking, so a busy queue is drained at a
        fraction of the per-request synchronisation cost.  A batch never
        crosses an END marker: private queues are reused across separate
        blocks, and requests logged by the *next* block must wait until the
        handler re-dequeues this queue from its queue-of-queues.

        Returns a possibly-empty list (empty = ``timeout`` elapsed).
        """
        batch = self._queue.get_batch(max_items, stop_type=EndMarker)
        if batch:
            return batch
        # queue empty: block (up to ``timeout``) for the first request, then
        # sweep up whatever arrived in the meantime
        first = self._queue.get(timeout=timeout)
        if first is None:
            return []
        if isinstance(first, EndMarker) or max_items <= 1:
            return [first]
        rest = self._queue.get_batch(max_items - 1, stop_type=EndMarker)
        rest.insert(0, first)
        return rest

    # -- bookkeeping --------------------------------------------------------
    def reset_for_reuse(self) -> None:
        """Prepare a cached private queue for a new separate block."""
        self.synced = False
        self.closed_by_client = False
        self.block_id = None
        self.pending_qoq = None

    def close(self) -> None:
        """The owning client is done with this queue (nothing to release here;
        a wire queue closes its connection)."""

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        owner = getattr(self.handler, "name", self.handler)
        return f"PrivateQueue(handler={owner!r}, pending={len(self)}, synced={self.synced})"
