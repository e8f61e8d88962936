"""The queue-of-queues: a handler's request queue (Fig. 4).

Clients enqueue *private queues* (their reservations); the single handler
dequeues private queues in FIFO order and drains each one before moving on,
which is exactly what preserves the paper's second reasoning guarantee
(requests from one client are processed in order, with no interleaving).
"""

from __future__ import annotations

from typing import Optional

from repro.queues.fifo import FifoQueue
from repro.queues.private_queue import PrivateQueue
from repro.util.counters import Counters


class _ShutdownSentinel:
    """Returned by ``dequeue`` when the queue is closed *and* drained.

    Distinct from ``None`` (which now unambiguously means "timed out, try
    again"): the handler loop of Fig. 7 needs to tell "no more work ever"
    apart from "no work yet", and conflating the two made a timed-out poll
    look like a shutdown request.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "SHUTDOWN"


#: singleton returned by :meth:`QueueOfQueues.dequeue` after close+drain
SHUTDOWN = _ShutdownSentinel()


class QueueOfQueues:
    """FIFO of :class:`PrivateQueue` objects owned by one handler (many producers)."""

    __slots__ = ("counters", "_queue")

    def __init__(self, counters: Optional[Counters] = None) -> None:
        self.counters = counters or Counters()
        self._queue: FifoQueue = FifoQueue()

    # -- client side (many producers) --------------------------------------
    def enqueue(self, private_queue: PrivateQueue) -> None:
        """Insert a client's private queue at the tail (rule *separate*).

        This is the completely asynchronous reservation step: the client
        never waits for the handler, regardless of what the handler is doing.
        """
        self.counters.bump("qoq_enqueues")
        self.counters.bump("reservations")
        self._queue.put(private_queue)

    # -- handler side (single consumer) -------------------------------------
    def dequeue(self, timeout: Optional[float] = None) -> "PrivateQueue | _ShutdownSentinel | None":
        """Pop the next private queue.

        Mirrors the boolean-returning ``qoq.dequeue`` in Fig. 7: the
        :data:`SHUTDOWN` sentinel corresponds to ``False`` ("no more work",
        the queue was closed and drained), while ``None`` means the
        ``timeout`` elapsed with the queue still open — the caller should
        poll again.
        """
        item = self._queue.get(timeout=timeout)
        if item is not None:
            return item
        if self._queue.closed and len(self._queue) == 0:
            return SHUTDOWN
        return None

    def try_dequeue(self) -> "PrivateQueue | _ShutdownSentinel | None":
        """Non-blocking :meth:`dequeue` (same ``SHUTDOWN``/``None`` contract)."""
        found, item = self._queue.try_get()
        if found:
            return item
        if self._queue.closed:
            return SHUTDOWN
        return None

    def close(self) -> None:
        """No client will ever reserve this handler again (shutdown).

        ``Client.reserve`` refuses a closed queue-of-queues before it
        enqueues anything (:class:`~repro.errors.HandlerShutdownError`).
        """
        self._queue.close()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def closed(self) -> bool:
        return self._queue.closed
