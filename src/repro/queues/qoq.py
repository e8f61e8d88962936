"""The queue-of-queues: a handler's request queue (Fig. 4).

Clients enqueue *private queues* (their reservations); the single handler
dequeues private queues in FIFO order and drains each one before moving on,
which is exactly what preserves the paper's second reasoning guarantee
(requests from one client are processed in order, with no interleaving).

The FIFO order is a *ticket* order: a ticket is a block's position in its
handler's FIFO, issued at reservation time, and queues are handed out
strictly by ticket whatever order they were filed in.  In memory a queue is
filed as its ticket is issued; on the process backend the parent issues the
tickets and the worker files each queue when its ``open`` frame arrives.
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

    __slots__ = ("counters", "_queue", "_issued", "next_ticket", "_early", "closed")

    def __init__(self, counters: Optional[Counters] = None, first_ticket: int = 0) -> None:
        self.counters = counters or Counters()
        self._queue: FifoQueue = FifoQueue()
        self._issued = itertools.count(first_ticket)  # ``next`` on it is atomic
        #: the ticket handed out next: every ticket below it is out or skipped
        self.next_ticket = first_ticket  # consumer only, like ``_early``
        self._early: Dict[int, Any] = {}
        self.closed = False

    # -- client side (many producers) --------------------------------------
    def enqueue(self, private_queue: PrivateQueue) -> int:
        """Issue the next ticket and file ``private_queue`` under it (rule *separate*).

        This is the completely asynchronous reservation step: the client
        never waits for the handler, regardless of what the handler is doing.
        """
        ticket = next(self._issued)
        self.counters.bump("qoq_enqueues")
        self.counters.bump("reservations")
        self.file(ticket, private_queue)
        return ticket

    def file(self, ticket: int, private_queue: PrivateQueue) -> None:
        """File ``private_queue`` under an already issued ``ticket`` (uncounted)."""
        self._queue.put((ticket, private_queue))

    def skip(self, ticket: int) -> None:
        """Give up ``ticket`` (its block will never open) unless it was filed first."""
        self._queue.put((ticket, None))

    def close(self, tickets: Optional[int] = None) -> int:
        """No client will ever reserve this handler again; returns ``tickets``.

        ``tickets`` is how many were issued (default: by :meth:`enqueue`).
        :data:`SHUTDOWN` is filed as the ticket after the last, so it comes
        out once every ticket below it has been handed out or skipped.
        ``Client.reserve`` refuses a closed queue-of-queues.
        """
        if tickets is None:
            tickets = next(self._issued)  # the next ticket is the number issued
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
        """
        early = self._early
        while True:
            while self.next_ticket in early:
                queue = early[self.next_ticket]
                if queue is SHUTDOWN:
                    return queue  # and again on every call
                del early[self.next_ticket]
                self.next_ticket += 1
                if queue is not None:  # None: a skipped ticket
                    return queue
            entry = self._queue.get(timeout=timeout)
            if entry is None:
                return None
            ticket, queue = entry
            if ticket == self.next_ticket and queue is not None and queue is not SHUTDOWN:
                self.next_ticket += 1
                return queue
            if ticket >= self.next_ticket:
                early.setdefault(ticket, queue)  # a ticket already out is dropped

    def try_dequeue(self) -> "PrivateQueue | _ShutdownSentinel | None":
        """Non-blocking :meth:`dequeue` (same ``SHUTDOWN``/``None`` contract)."""
        return self.dequeue(timeout=0)

    def __len__(self) -> int:
        # entries filed and not yet handed out; the SHUTDOWN entry is no queue
        return len(self._queue) + len(self._early) - self.closed
