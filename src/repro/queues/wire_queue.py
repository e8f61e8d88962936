"""The client side of the process wire protocol, as a sans-IO core.

:class:`~repro.queues.socket_queue.FrameBuffers` is the core of *framing*:
bytes in, payloads out, no socket.  :class:`WireQueueCore` is the same idea
one layer up, for the *private-queue protocol* a client speaks to a handler
hosted in a worker process (:mod:`repro.backends.process_worker`): it turns
requests into frames and replies into outcomes, and owns every piece of
protocol state in between — the block's ticket and its deferred ``open``,
the open burst of logged calls, journal-before-feed, the request counters,
the replies the block is still owed, the stale-reply debt a failover or an
abandoned query leaves behind, and the replay sequence that re-establishes a
queue on a replacement worker.  It never touches a stream.

Logging a call is an append, as in the paper's rule *call*: the call joins
the block's open burst, and nothing is framed, journaled or counted.  The
burst is taken out as ONE ``calls`` frame — journaled once, encoded once,
counted once — when it holds :data:`MAX_BURST_CALLS` calls (the driver sends
it at once, so the worker starts on a long block early) or when the block
needs its queue in order: a ``sync``, ``query``, ``invoke`` or ``end`` takes
it out in front of itself.  What the codec would refuse in a call or a query
is refused at the call (:meth:`~repro.queues.codec.Codec.check`), before
anything is journaled, counted or owed a reply.

A request travels as it is: its ``fn`` (a feature name, or a callable only
a faithful codec carries), the hosted object's ``oid`` and the arguments.
A ``calls`` entry is ``[oid, fn, args, kwargs]``; a ``query`` or ``invoke``
frame carries the same four fields by name.

A query costs one frame out and one reply in: a packaged ``query``, or a
client-executed body as an ``invoke`` that, when the handler is not yet
synced, stands in for the ``sync`` as well (:meth:`WireQueueCore.invoke`).
Only an explicit ``sync()`` barrier puts a ``sync`` frame on the wire.

Two thin drivers in :mod:`repro.backends.process` move its frames: a
blocking one ("issue, flush, ``recv``, classify") over a
:class:`~repro.queues.socket_queue.FrameStream` and a continuation-based one
("issue, flush, append a continuation") over an
:class:`~repro.queues.socket_queue.AsyncFrameStream`.  Both hold a core, so
the wire format, the counters and the failover arithmetic cannot drift
between thread clients and coroutine clients.

The other sans-IO half of failover is :class:`HandlerJournal`, one per
handler: the replay window every core of that handler writes into.
"""

from __future__ import annotations

import base64
import threading
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ScoopError
from repro.queues.codec import CODECS

Frame = Dict[str, Any]

#: the most calls one ``calls`` frame carries: a full burst leaves at once, so
#: the worker starts on a long block while the client still logs.  A pure call
#: *count*, not bytes, keeps the frames (and ``wire_frames_coalesced``)
#: identical across codecs.
MAX_BURST_CALLS = 32


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


class HandlerJournal:
    """One handler's failover replay window; does no I/O, has its own lock.

    Holds what a replacement worker is built from: the newest checkpoint a
    reply carried (``{"ticket", "oids", "state"}``; its ticket is the
    *watermark*), the adopt-time pickles of objects it does not cover, and
    the data frames of every block above the watermark, by ticket.  Blocks
    at or below it are in the checkpoint's state and are never kept.  Every
    wire queue to the handler appends, replies on any of them install
    checkpoints, and a failover takes the restore — hence the lock.
    """

    __slots__ = ("_lock", "_checkpoint", "_watermark", "_adopted", "_blocks", "_restored")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._checkpoint: Optional[Dict[str, Any]] = None
        self._watermark = -1
        self._adopted: Dict[int, bytes] = {}
        self._blocks: Dict[int, List[Frame]] = {}
        #: tickets pre-filed on a replacement worker: their clients must not replay them
        self._restored: Set[int] = set()

    def extend(self, ticket: Optional[int], frames: List[Frame]) -> None:
        """Record data frames of block ``ticket`` (before they are sent)."""
        with self._lock:
            if ticket is not None and ticket > self._watermark:
                self._blocks.setdefault(ticket, []).extend(frames)

    def adopted(self, oid: int, blob: bytes) -> None:
        """Keep an object's adopt-time pickle until a checkpoint covers it."""
        with self._lock:
            # the worker hosts before the parent records: a checkpoint that
            # covers the object may already be here
            if self._checkpoint is None or oid not in self._checkpoint["oids"]:
                self._adopted[oid] = blob

    def checkpoint(self, ticket: int, oids: Iterable[int], state: bytes) -> Optional[int]:
        """Install a snapshot taken after block ``ticket``; drop what it covers.

        Returns how many journaled frames it dropped, or ``None`` when a
        newer checkpoint is in force (replies on different connections are
        processed in any order).
        """
        covered = frozenset(oids)
        with self._lock:
            if ticket <= self._watermark:
                return None
            self._checkpoint = {"ticket": ticket, "oids": covered, "state": state}
            self._watermark = ticket
            for oid in covered.intersection(self._adopted):
                del self._adopted[oid]
            self._restored = {t for t in self._restored if t > ticket}
            served = [t for t in self._blocks if t <= ticket]
            return sum(len(self._blocks.pop(t)) for t in served)

    def tail(self, ticket: Optional[int]) -> Optional[List[Frame]]:
        """The frames block ``ticket``'s client replays, in send order.

        ``None`` when there is nothing for the client to replay: no block
        was ever opened, or the block is in the state a replacement is
        restored to — at or below the watermark, or pre-filed by
        :meth:`take_restore`.
        """
        with self._lock:
            if ticket is None or ticket <= self._watermark or ticket in self._restored:
                return None
            return list(self._blocks.get(ticket, ()))

    def take_restore(self) -> Tuple[Optional[Dict[str, Any]], List[Tuple[int, bytes]],
                                    List[Tuple[int, List[Frame]]]]:
        """``(checkpoint, adopted, blocks)`` for a replacement worker.

        The newest checkpoint (or ``None``), the ``(oid, pickle)`` pairs it
        does not cover, and the ``(ticket, frames)`` of every *ended* block
        above it in ticket order — marked restored, so their clients do not
        replay them too.  An open block is replayed by its own client, which
        alone knows whether more frames are coming.
        """
        with self._lock:
            blocks = [(t, list(frames)) for t, frames in sorted(self._blocks.items())
                      if frames[-1]["kind"] == "end"]
            self._restored.update(t for t, _ in blocks)
            return self._checkpoint, sorted(self._adopted.items()), blocks

    def size(self) -> Tuple[int, int]:
        """``(blocks, frames)`` held now."""
        with self._lock:
            return len(self._blocks), sum(map(len, self._blocks.values()))


class WireQueueCore:
    """Protocol state of one (client, handler) wire queue; does no I/O.

    ``link`` is where the queue's surroundings live (the process backend):
    ``token`` and ``codec`` for the hello frame, the fidelity checks and the
    checkpoint encoding, and ``merge_worker_counters`` for the counter
    snapshots replies piggyback.  ``journal`` is the handler's
    :class:`HandlerJournal`: every data frame goes into it before it is
    handed out, every checkpoint a reply carries is installed there, and a
    replay reads the block's tail from it.  The core hands frames out
    (every ``call`` / ``sync`` / ``query`` / ``end`` / ``invoke`` returns the
    frames to put on the wire, in order, as one write — none for a call
    that only joined the open burst) and takes replies in (:meth:`classify`).
    """

    __slots__ = ("link", "handler", "counters", "journal", "_codec", "ticket", "block_id",
                 "_open_pending", "_burst", "_burst_bytes", "replies_seen", "unread",
                 "abandoned", "stale_replies")

    def __init__(self, link: Any, handler: Any, counters: Any,
                 journal: HandlerJournal) -> None:
        self.link = link
        self.handler = handler
        self.counters = counters
        self.journal = journal
        self._codec = CODECS[link.codec]
        #: the current block's ticket (kept past the deferred open, for replay)
        self.ticket: Optional[int] = None
        self.block_id: Optional[int] = None
        self._open_pending = False
        #: the open burst: calls logged and not yet taken out (nor journaled,
        #: counted or sent), and their payload bytes
        self._burst: List[list] = []
        self._burst_bytes = 0
        #: genuine replies consumed in the current block
        self.replies_seen = 0
        #: replies the current block has issued and not consumed yet ...
        self.unread = 0
        #: ... and those of them it ended without anyone waiting for
        self.abandoned = 0
        #: replies to discard: regenerated by a failover replay, or abandoned
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
        self.replies_seen = self.unread = self.abandoned = 0

    def _open_frame(self) -> Frame:
        return {"kind": "open", "ticket": self.ticket, "block": self.block_id}

    # -- frames out ----------------------------------------------------------
    def hello(self, client_name: Optional[str]) -> Frame:
        """The first frame of every connection (never coalesced with data)."""
        return {"kind": "hello", "handler": self.handler.name,
                "token": self.link.token, "client": client_name}

    def _issue(self, payload: Optional[Frame] = None, answered: bool = False) -> List[Frame]:
        """Take out the open burst and ``payload``; journal them, then hand them out.

        The burst goes in front of ``payload`` (log order), counted once:
        ``pq_enqueues`` and ``async_calls`` by its length, ``bytes_copied``
        by its payload.  The journal write happens *before* the frames reach
        any stream, so a frame lost with a crashing worker is part of the
        next :meth:`replay` — drivers never retry a frame after a reconnect.
        ``answered`` frames (``sync`` / ``query`` / ``invoke``) are owed one
        reply each.
        """
        frames: List[Frame] = []
        burst = self._burst
        if burst:
            counters = self.counters
            counters.add("pq_enqueues", len(burst))
            counters.add("async_calls", len(burst))
            if self._burst_bytes:
                counters.add("bytes_copied", self._burst_bytes)
            frames.append({"kind": "calls", "calls": burst})
            self._burst, self._burst_bytes = [], 0
        if payload is not None:
            frames.append(payload)
        self.journal.extend(self.ticket, frames)
        if answered:
            self.unread += 1
        if self._open_pending:
            self._open_pending = False
            frames.insert(0, self._open_frame())
        return frames

    def call(self, request: Any) -> List[Frame]:
        """Append an asynchronous call to the block's open burst (rule *call*).

        The call becomes one ``[oid, fn, args, kwargs]`` entry.  What the
        codec would refuse in it is refused now, so misuse fails at the
        call and leaves the burst as it was.  Only a full burst is handed
        out.
        """
        burst = self._burst
        burst.append(self._entry(request.target, request.fn, request.args, request.kwargs))
        self._burst_bytes += request.payload_bytes
        if len(burst) < MAX_BURST_CALLS:
            return []
        return self._issue()

    def sync(self) -> List[Frame]:
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")
        return self._issue({"kind": "sync"}, answered=True)

    def query(self, request: Any) -> List[Frame]:
        """A packaged query: the request travels and the handler runs it."""
        payload = self._answered("query", request.target, request.fn, request.args,
                                 request.kwargs)
        self.counters.bump("pq_enqueues")
        self.counters.bump("sync_roundtrips")
        return self._issue(payload, answered=True)

    def end(self) -> List[Frame]:
        """End the block; whatever it left unread is abandoned with it.

        A pending query dropped with its block leaves a reply nobody will
        wait for, and the next block on the cached connection would take it
        for its own: it joins the stale debt.  Booked *before* the frame
        leaves, so a failover while sending it re-derives the debt
        (:meth:`replay`) from ``abandoned`` instead of stacking on it.
        """
        self.counters.bump("pq_enqueues")
        self.abandoned, self.unread = self.unread, 0
        self.stale_replies += self.abandoned
        return self._issue({"kind": "end"})

    def invoke(self, handle: Any, fn: Any, args: tuple, kwargs: dict,
               carries_sync: bool = False) -> List[Frame]:
        """A client-executed query body for the remote handler.

        The arguments are those of ``PrivateQueue.invoke``; ``fn`` travels
        as it is, a feature name or a callable.

        ``carries_sync`` says the handler is not yet parked on this queue
        and the frame stands where the ``sync`` would have: the worker's
        drain serves a block's frames strictly in order, so when it runs the
        body it has finished everything logged before it, and a ``sync`` →
        ``release`` exchange in front would carry no information.  The frame
        is the same; the accounting is that of :meth:`sync`.
        """
        payload = self._answered("invoke", handle, fn, args, kwargs)
        if carries_sync:
            self.counters.bump("pq_enqueues")
            self.counters.bump("sync_roundtrips")
        return self._issue(payload, answered=True)

    def sent(self, frames: List[Frame]) -> None:
        """Account for ``frames`` leaving in one write.

        ``wire_frames_coalesced`` counts the requests that shared a write
        with another: every frame is one, a ``calls`` frame one per call.
        A pure request count, so it is identical across wire codecs.
        """
        requests = len(frames)
        for frame in frames:
            if frame["kind"] == "calls":
                requests += len(frame["calls"]) - 1
        if requests > 1:
            self.counters.add("wire_frames_coalesced", requests - 1)

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
            self._install(checkpoint)
        if self.stale_replies > 0:
            self.stale_replies -= 1
            return None
        self.replies_seen += 1
        if self.unread:
            self.unread -= 1
        if reply["kind"] != "error":
            return reply.get("value"), None
        error = reply.get("error")
        if not isinstance(error, BaseException):
            error = RemoteCallError(reply.get("message", "remote call failed"))
        return None, error

    def _install(self, checkpoint: Frame) -> None:
        """Hand a reply's handler snapshot to the journal, and count it."""
        state = checkpoint["state"]
        if not self._codec.faithful:  # it cannot carry bytes either
            state = base64.b64decode(state)
        dropped = self.journal.checkpoint(int(checkpoint["ticket"]), checkpoint["oids"], state)
        if dropped is not None:
            self.handler.counters.bump("journal_checkpoints")
            self.handler.counters.add("journal_frames_dropped", dropped)

    # -- failover ------------------------------------------------------------
    def replay(self, client_name: Optional[str]) -> List[Frame]:
        """The frames that re-establish this queue on a replacement worker.

        Always the hello.  Then, unless the current block is already part
        of the state the replacement is restored to (at or below the last
        checkpoint's ticket, or ended before the worker was declared dead
        and pre-filed from the journal), the ``open`` frame and every data
        frame journaled for it: the worker re-executes the block from the
        restored snapshot, so every reply consumed before the crash, and
        every one the block abandoned at its end, is *regenerated* — those
        become the stale debt :meth:`classify` drops; the unread ones come
        again for whoever waits.  Replies pending on the dead stream died
        with it (hence ``=``), and a block that is not replayed is owed none.
        The open burst was never journaled nor sent: it stays, and leaves
        with the block's next frame.
        """
        frames = [self.hello(client_name)]
        journaled = self.journal.tail(self.ticket)
        if journaled is None:
            self.stale_replies = self.unread = 0
        else:
            frames.append(self._open_frame())
            frames.extend(journaled)
            self._open_pending = False
            self.stale_replies = self.replies_seen + self.abandoned
        return frames

    # -- payloads ------------------------------------------------------------
    def _oid_of(self, handle: Any) -> int:
        if not isinstance(handle, RemoteHandle):
            raise ScoopError(
                f"handler {self.handler.name!r} runs in a separate process, but the "
                f"target {handle!r} was not adopted through it")
        return handle.oid

    def _answered(self, kind: str, target: Any, fn: Any, args: Any, kwargs: dict) -> Frame:
        """The frame of a request owed a reply: its entry's four fields by name."""
        oid, fn, args, kwargs = self._entry(target, fn, args, kwargs)
        return {"kind": kind, "oid": oid, "fn": fn, "args": args, "kwargs": kwargs}

    def _entry(self, target: Any, fn: Any, args: Any, kwargs: dict) -> list:
        """``[oid, fn, args, kwargs]`` of a request, refused now if the codec would refuse it.

        A feature name is a string every codec carries; a callable only a
        faithful one ('pickle' or 'bin'), and only if it pickles.  Checked
        before anything is journaled, counted or owed: a frame the driver
        then failed to encode would leave a reply that never comes (which
        the block's end turns into stale debt that swallows the next genuine
        one) and a journal entry no replacement worker could be sent.
        """
        oid, args = self._oid_of(target), list(args)
        check = self._codec.check
        check((fn, *args), "a request's callable or arguments")
        if kwargs:
            check(kwargs.values(), "a request's keyword arguments")
        return [oid, fn, args, kwargs]
