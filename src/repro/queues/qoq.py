"""The queue-of-queues: a handler's request queue (Fig. 4).

Clients enqueue *private queues* (their reservations); the single handler
dequeues private queues in FIFO order and drains each one before moving on,
which is exactly what preserves the paper's second reasoning guarantee
(requests from one client are processed in order, with no interleaving).

The FIFO order is a *ticket* order: a ticket is a block's position in its
handler's FIFO, issued at reservation time, and queues are handed out
strictly by ticket whatever order they were filed in.  In memory a
multi-handler block's queues are filed as their tickets are issued, and a
single-handler block's queue with the block's first request; on the process
backend the parent issues the tickets and the worker files each queue when
its ``open`` frame arrives.

The ``served`` watermark says how far the handler got: every ticket below it
has been fully served.  The handler advances it between blocks.  A block
whose ticket reaches it before anything was filed finds the handler idle and
waiting for exactly this block, so its queries need no sync (the client then
passes the ticket on with :meth:`QueueOfQueues.pass_unfiled` when the block
ends).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.queues.fifo import FifoQueue
from repro.queues.private_queue import PrivateQueue
from repro.util.counters import Counters


class _ShutdownSentinel:
    """Returned by ``dequeue`` once closed and drained ("no more work ever");
    ``None`` means "no work yet"."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SHUTDOWN"


#: singleton returned by :meth:`QueueOfQueues.dequeue` after close+drain
SHUTDOWN = _ShutdownSentinel()


class QueueOfQueues:
    """Ticket-ordered FIFO of :class:`PrivateQueue` objects owned by one handler.

    Producers file ``(ticket, queue)`` entries into one :class:`FifoQueue`;
    the single consumer parks an entry that arrives early until every
    ticket below it is out.  The first entry under a ticket wins, so a skip
    never drops a queue filed before it.  ``first_ticket`` is where the
    tickets start (a handler restored from a checkpoint continues above it).
    """

    __slots__ = ("counters", "_queue", "_issued", "next_ticket", "served", "_early",
                 "_gives_up", "closed")

    def __init__(self, counters: Optional[Counters] = None, first_ticket: int = 0) -> None:
        self.counters = counters or Counters()
        self._queue: FifoQueue = FifoQueue()
        self._issued = itertools.count(first_ticket)  # ``next`` on it is atomic
        #: the ticket handed out next: every ticket below it is out or skipped
        self.next_ticket = first_ticket  # consumer only, like ``_early``
        #: every ticket below it is fully served.  Only the holder of ticket
        #: ``served`` writes it: the handler once it has served that block,
        #: or a client whose block never filed its queue
        self.served = first_ticket
        self._early: Dict[int, Any] = {}
        #: closed by :meth:`close` without ``tickets``: see there
        self._gives_up = False
        self.closed = False

    # -- client side (many producers) --------------------------------------
    def issue(self) -> int:
        """Issue the next ticket, the block's FIFO position (rule *separate*).

        This is the completely asynchronous reservation step: the client
        never waits for the handler, regardless of what the handler is doing.
        """
        self.counters.bump("reservations")
        return next(self._issued)

    def enqueue(self, private_queue: PrivateQueue, ticket: Optional[int] = None) -> int:
        """File ``private_queue`` under ``ticket``, by default one issued now."""
        if ticket is None:
            ticket = self.issue()
        self.counters.bump("qoq_enqueues")
        self.file(ticket, private_queue)
        return ticket

    def pass_unfiled(self, ticket: int) -> bool:
        """End the block of ``ticket`` (``served``), which never filed its queue.

        The handler waits for this very ticket, so nothing goes on the FIFO:
        the watermark moves past it.  Returns True when the handler already
        holds a later block; a consumer asleep in the FIFO is woken here,
        and the caller notifies the handler's backend.
        """
        self.served = ticket + 1
        if not self._early:
            return False
        self._queue.wake()
        return True

    def file(self, ticket: int, private_queue: PrivateQueue) -> None:
        """File ``private_queue`` under an already issued ``ticket`` (uncounted)."""
        self._queue.put((ticket, private_queue))

    def skip(self, ticket: int) -> None:
        """Give up ``ticket`` (its block will never open) unless it was filed first."""
        self._queue.put((ticket, None))

    def close(self, tickets: Optional[int] = None) -> int:
        """No client will ever reserve this handler again; returns ``tickets``.

        ``tickets`` is how many were issued (default: by :meth:`issue`).
        :data:`SHUTDOWN` is filed as the ticket after the last, so it comes
        out once every ticket below it has been handed out or skipped.
        ``Client.reserve`` refuses a closed queue-of-queues.

        Without ``tickets`` the clients filing here are this process's own,
        and a ticket with nothing filed once :data:`SHUTDOWN` is out belongs
        to a client still inside its block: it is given up, as
        ``Handler.abandons`` gives up a filed, empty queue.  With
        ``tickets``, filing may lag (a worker reads ``open`` frames off
        sockets), and the caller skips what it gives up.
        """
        if tickets is None:
            tickets = next(self._issued)  # the next ticket is the number issued
            self._gives_up = True
        self._queue.put((tickets, SHUTDOWN))
        self.closed = True  # after the put: ``len`` never reads negative
        return tickets

    # -- handler side (single consumer) -------------------------------------
    def dequeue(self, timeout: Optional[float] = None) -> "PrivateQueue | _ShutdownSentinel | None":
        """Hand out the private queue of the next ticket.

        Mirrors the boolean-returning ``qoq.dequeue`` in Fig. 7: the
        :data:`SHUTDOWN` sentinel corresponds to ``False`` ("no more work"),
        while ``None`` means the ``timeout`` elapsed before the next ticket
        was filed — the caller should poll again.

        The handler calls it between blocks only, so the queue handed out
        last is fully served: that is where ``served`` advances.
        """
        early = self._early
        if self.served < self.next_ticket:
            self.served = self.next_ticket
        while True:
            if self.served > self.next_ticket:
                # blocks their clients ended without filing: nothing to hand out
                self.next_ticket = self.served
            while self.next_ticket in early:
                queue = early[self.next_ticket]
                if queue is SHUTDOWN:
                    return queue  # and again on every call
                del early[self.next_ticket]
                self.next_ticket += 1
                if queue is not None:  # None: a skipped ticket
                    return queue
            # ``served`` is re-read in the FIFO's last look before it sleeps
            entry = self._queue.get(timeout=timeout, stop=self._passed)
            if entry is None:
                if self._passed():
                    continue
                return None
            ticket, queue = entry
            if ticket == self.next_ticket and queue is not None and queue is not SHUTDOWN:
                self.next_ticket += 1
                return queue
            if ticket >= self.next_ticket:
                early.setdefault(ticket, queue)  # a ticket already out is dropped
                if queue is SHUTDOWN and self._gives_up:
                    for unfiled in range(self.next_ticket, ticket):
                        early.setdefault(unfiled, None)

    def _passed(self) -> bool:
        """Whether a client moved ``served`` past the ticket the handler waits for."""
        return self.served > self.next_ticket

    def try_dequeue(self) -> "PrivateQueue | _ShutdownSentinel | None":
        """Non-blocking :meth:`dequeue` (same ``SHUTDOWN``/``None`` contract)."""
        return self.dequeue(timeout=0)

    def __len__(self) -> int:
        # entries filed and not yet handed out; the SHUTDOWN entry is no queue
        return len(self._queue) + len(self._early) - self.closed
