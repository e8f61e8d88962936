"""The client side of the process wire protocol, as a sans-IO core.

:class:`~repro.queues.socket_queue.FrameBuffers` is the core of *framing*:
bytes in, payloads out, no socket.  :class:`WireQueueCore` is the same idea
one layer up, for the *private-queue protocol* a client speaks to a handler
hosted in a worker process (:mod:`repro.backends.process_worker`): it turns
requests into frames and replies into outcomes, and owns every piece of
protocol state in between — the block's ticket and its deferred ``open``,
journal-before-feed, the request counters, the stale-reply debt a failover
leaves behind, and the replay sequence that re-establishes a queue on a
replacement worker.  It never touches a stream.

Two thin drivers in :mod:`repro.backends.process` move its frames: a
blocking one ("issue, flush, ``recv``, classify") over a
:class:`~repro.queues.socket_queue.FrameStream` and a continuation-based one
("issue, flush, append a continuation") over an
:class:`~repro.queues.socket_queue.AsyncFrameStream`.  Both hold a core, so
the wire format, the counters and the failover arithmetic cannot drift
between thread clients and coroutine clients.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ScoopError
from repro.queues.codec import CODECS

Frame = Dict[str, Any]


class RemoteCallError(ScoopError):
    """A remote call failed and the original exception could not travel.

    Raised when the worker's error reply only carried a ``repr`` (JSON
    codec, or an unpicklable exception); with the pickle codec the original
    exception is re-raised instead.
    """


class RemoteHandle:
    """Parent-side stand-in for an object hosted in a handler process.

    A :class:`~repro.core.region.SeparateRef` wraps this instead of the raw
    object.  ``_scoop_class`` advertises the hosted object's class so
    ``@command``/``@query`` markers still resolve on the client side.
    """

    __slots__ = ("handler_name", "oid", "_scoop_class")

    def __init__(self, handler_name: str, oid: int, cls: type) -> None:
        self.handler_name = handler_name
        self.oid = oid
        self._scoop_class = cls

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<RemoteHandle {self._scoop_class.__name__}#{self.oid} @ {self.handler_name}>"


class WireQueueCore:
    """Protocol state of one (client, handler) wire queue; does no I/O.

    ``link`` is where the queue's surroundings live (the process backend):
    ``token`` and ``codec`` for the hello frame and the fidelity checks,
    ``journal_frame`` / ``journal_for`` for the failover journal, and
    ``merge_worker_counters`` / ``checkpoint`` for the counter and handler
    snapshots replies piggyback.  The
    core hands frames out (every ``call`` / ``sync`` / ``query`` / ``end``
    / ``invoke`` returns the frames to put on the wire, in order) and takes
    replies in (:meth:`classify`).
    """

    __slots__ = ("link", "handler", "counters", "ticket", "block_id",
                 "_open_pending", "replies_seen", "stale_replies")

    def __init__(self, link: Any, handler: Any, counters: Any) -> None:
        self.link = link
        self.handler = handler
        self.counters = counters
        #: the current block's ticket (kept past the deferred open, for replay)
        self.ticket: Optional[int] = None
        self.block_id: Optional[int] = None
        self._open_pending = False
        #: genuine replies consumed in the current block
        self.replies_seen = 0
        #: replies to discard because a failover replay regenerates them
        self.stale_replies = 0

    # -- blocks --------------------------------------------------------------
    def open_block(self, ticket: int, block_id: Optional[int]) -> None:
        """Record this block's FIFO position; the ``open`` frame is deferred.

        Called inside the reservation's spinlock critical section, where
        socket I/O must not happen: the frame leaves with the block's first
        request.  The ticket, not frame arrival order, decides when the
        worker serves the block, so the deferral cannot reorder service.
        """
        self.ticket = ticket
        self.block_id = block_id
        self._open_pending = True
        # NOT stale_replies: stale replies belong to the *connection* (a
        # failover replay's regenerated replies can straddle a block change),
        # so that debt survives until drained or the stream is replaced.
        self.replies_seen = 0

    def _open_frame(self) -> Frame:
        return {"kind": "open", "ticket": self.ticket, "block": self.block_id}

    # -- frames out ----------------------------------------------------------
    def hello(self, client_name: Optional[str]) -> Frame:
        """The first frame of every connection (never coalesced with data)."""
        return {"kind": "hello", "handler": self.handler.name,
                "token": self.link.token, "client": client_name}

    def _issue(self, payload: Frame) -> List[Frame]:
        """Journal one data frame, then hand it out behind the deferred open.

        The journal write happens *before* the frame reaches any stream, so
        a frame lost with a crashing worker is part of the next
        :meth:`replay` — drivers never retry a frame after a reconnect.
        """
        self.link.journal_frame(self.handler.name, self.ticket, payload)
        if self._open_pending:
            self._open_pending = False
            return [self._open_frame(), payload]
        return [payload]

    def call(self, request: Any) -> List[Frame]:
        self.counters.bump("pq_enqueues")
        self.counters.bump("async_calls")
        if request.payload_bytes:
            self.counters.add("bytes_copied", request.payload_bytes)
        return self._issue(self._call_payload("call", request))

    def sync(self) -> List[Frame]:
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")
        return self._issue({"kind": "sync"})

    def query(self, request: Any) -> List[Frame]:
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")
        return self._issue(self._call_payload("query", request))

    def end(self) -> List[Frame]:
        self.counters.bump("pq_enqueues")
        return self._issue({"kind": "end"})

    def invoke(self, handle: Any, fn: Callable[[Any], Any], feature: Optional[str] = None,
               args: tuple = (), kwargs: Optional[dict] = None,
               raw_fn: Optional[Callable[..., Any]] = None) -> List[Frame]:
        """A client-executed query body for the (synced) remote handler.

        The arguments are those of ``execute_synced_query``: a named
        ``feature`` travels as data; otherwise the picklable ``raw_fn``
        (applied as ``raw_fn(obj, *args, **kwargs)``) or the one-argument
        closure ``fn`` itself is shipped.
        """
        payload: Frame = {"kind": "invoke", "oid": self._oid_of(handle),
                          "args": list(args), "kwargs": kwargs or {}}
        if feature:
            payload["feature"] = feature
        else:
            self._require_pickle("ship a callable query body")
            if raw_fn is not None:
                payload["fn"] = raw_fn
            else:
                payload.update(fn=fn, args=[], kwargs={})
        return self._issue(payload)

    def sent(self, flushed: int) -> None:
        """Account for a burst of ``flushed`` frames leaving in one write."""
        # N frames in one sendall = N-1 syscalls saved; the counter is a
        # pure frame count, so it is identical across wire codecs
        if flushed > 1:
            self.counters.add("wire_frames_coalesced", flushed - 1)

    # -- replies in ----------------------------------------------------------
    def classify(self, reply: Frame) -> Optional[Tuple[Any, Optional[BaseException]]]:
        """Account for one reply off the wire.

        Returns ``None`` for a stale reply (regenerated by a failover replay
        and already consumed before the crash), else ``(value, error)`` —
        ``error`` is the exception to raise for an ``error`` reply.
        """
        counters = reply.get("counters")
        if counters:
            # merge even from stale replies: the high-water merge makes it
            # safe, and the snapshot may be the freshest we ever see
            self.link.merge_worker_counters(self.handler, counters)
        checkpoint = reply.get("checkpoint")
        if checkpoint:
            # likewise: a handler snapshot is as good on a stale reply
            self.link.checkpoint(self.handler, checkpoint)
        if self.stale_replies > 0:
            self.stale_replies -= 1
            return None
        self.replies_seen += 1
        if reply["kind"] != "error":
            return reply.get("value"), None
        error = reply.get("error")
        if not isinstance(error, BaseException):
            error = RemoteCallError(reply.get("message", "remote call failed"))
        return None, error

    # -- failover ------------------------------------------------------------
    def replay(self, client_name: Optional[str]) -> List[Frame]:
        """The frames that re-establish this queue on a replacement worker.

        Always the hello.  Then, unless the current block is already part
        of the state the replacement is restored to (at or below the last
        checkpoint's ticket, or ended before the worker was declared dead
        and pre-filed from the journal), the ``open`` frame and every data
        frame journaled for it: the worker re-executes the block from the
        restored snapshot, so every reply consumed before the crash is
        *regenerated* — those become the stale debt :meth:`classify` drops.
        Replies pending on the dead stream died with it (hence ``=``).
        """
        frames = [self.hello(client_name)]
        journaled = self.link.journal_for(self.handler.name, self.ticket)
        if journaled is None:
            self.stale_replies = 0
        else:
            frames.append(self._open_frame())
            frames.extend(journaled)
            self._open_pending = False
            self.stale_replies = self.replies_seen
        return frames

    # -- payloads ------------------------------------------------------------
    def _oid_of(self, handle: Any) -> int:
        if not isinstance(handle, RemoteHandle):
            raise ScoopError(
                f"handler {self.handler.name!r} runs in a separate process, but the "
                f"target {handle!r} was not adopted through it")
        return handle.oid

    def _call_payload(self, kind: str, request: Any) -> Frame:
        oid = self._oid_of(request.args[0] if request.args else None)
        if request.raw_fn is not None:
            # fn is an unpicklable wrapper closure; ship the user's callable
            self._require_pickle(f"ship the callable {request.raw_fn!r}")
            return {"kind": kind, "oid": oid, "fn": request.raw_fn,
                    "args": list(request.call_args or ()), "kwargs": request.call_kwargs or {}}
        if request.call_args is not None:
            return {"kind": kind, "oid": oid, "feature": request.feature,
                    "args": list(request.call_args), "kwargs": request.call_kwargs or {}}
        # an arbitrary callable (apply/compute): only pickle can carry it
        self._require_pickle(f"ship the callable {request.feature or request.fn!r}")
        return {"kind": kind, "oid": oid, "fn": request.fn,
                "args": list(request.args[1:]), "kwargs": dict(request.kwargs or {})}

    def _require_pickle(self, what: str) -> None:
        """Reject codecs that cannot ship arbitrary objects (callables).

        Only the full-fidelity codecs qualify: 'pickle' outright, and 'bin'
        via its pickle fallback for non-native values.
        """
        if not CODECS[self.link.codec].faithful:
            raise ScoopError(
                f"the {self.link.codec!r} wire codec cannot {what}; "
                f"use a full-fidelity codec — 'pickle' or 'bin' "
                f"(e.g. backend='process:bin')")
