"""The one FIFO of the queue substrate: a deque plus a condition.

Both of the paper's queue shapes (Section 3.1) are this class.  A private
queue is single-producer single-consumer (one client, one handler); the
queue-of-queues is multiple-producer single-consumer (every client that
reserves the handler), whose ``(ticket, queue)`` entries
:class:`~repro.queues.qoq.QueueOfQueues` hands out in ticket order.  CPython
cannot express a true lock-free ring buffer, but it *can* exploit the fact
that ``collections.deque.append`` and ``popleft`` are atomic with respect to
the GIL, so the fast path performs no locking at all; the condition is only
touched when the single consumer has to block waiting for data.

The producer learns that from ``_waiting``, which the consumer sets under
the condition *before* its last look at the deque.  Under the GIL that is
enough, with any number of producers: a producer that reads ``False``
appended before that look, so the consumer finds the item; one that reads
``True`` takes the condition, which the consumer only gives up inside
``wait``, so the notify cannot be lost.  That producer also clears the
flag: the consumer it wakes finds the item and returns without sleeping
again, and the producers behind it skip the lock.

The same protocol wakes a consumer for a change that is not an item: the
consumer's ``stop`` is part of its last look, and a producer that changed
what ``stop`` reads calls :meth:`FifoQueue.wake` afterwards.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Generic, Optional, TypeVar

T = TypeVar("T")


class FifoQueue(Generic[T]):
    """Unbounded FIFO: producers never block, one consumer may."""

    __slots__ = ("_items", "_cond", "_closed", "_waiting")

    def __init__(self) -> None:
        self._items: Deque[T] = deque()
        self._cond = threading.Condition()
        self._closed = False
        #: True while the consumer may be asleep in ``get`` (set under ``_cond``)
        self._waiting = False

    # -- producer side -------------------------------------------------
    def put(self, item: T) -> None:
        """Enqueue ``item`` from any thread; never blocks (the queue is unbounded)."""
        self._items.append(item)
        # Only wake the consumer if it might be sleeping; uncontended appends
        # stay lock free thanks to the GIL-atomic deque.  One wake-up per
        # sleep: the appends behind it, made before the woken consumer runs,
        # skip the lock too.
        if self._waiting:
            self.wake()

    def wake(self) -> None:
        """Wake a consumer asleep in ``get``; without an item, its ``stop`` decides."""
        if self._waiting:
            with self._cond:
                self._waiting = False
                self._cond.notify()

    def close(self) -> None:
        """Signal that no more items will ever be produced."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- consumer side -------------------------------------------------
    def get(self, timeout: Optional[float] = None,
            stop: "Callable[[], bool] | None" = None) -> Optional[T]:
        """Dequeue the next item, blocking until one is available.

        Returns ``None`` when the queue has been closed and drained, mirroring
        the boolean-returning ``dequeue`` of the paper's C implementation
        (``False`` meaning "no more work", Fig. 7), when ``timeout`` elapses,
        or when ``stop()`` is true at a last look before sleeping.
        """
        # Fast path: data already available.  The consumer alone pops, so a
        # non-empty deque stays non-empty until it does.
        items = self._items
        if items:
            return items.popleft()
        with self._cond:
            try:
                while True:
                    # set again after every wake-up: ``wake`` clears it
                    self._waiting = True
                    if items:
                        return items.popleft()
                    if ((stop is not None and stop()) or self._closed
                            or not self._cond.wait(timeout=timeout)):
                        return None
            finally:
                self._waiting = False

    def get_batch(self, max_items: int, stop_type: "type | None" = None) -> list:
        """Non-blocking bulk dequeue of up to ``max_items`` items.

        The whole batch is popped in one tight loop over bound methods —
        this is the drain fast path: one ``get_batch`` call amortises the
        per-item call overhead of repeated ``get``/``try_get``.  When
        ``stop_type`` is given, the batch ends right after the first item of
        that type (used to keep a drain from crossing an END marker).
        """
        popleft = self._items.popleft
        batch: list = []
        append = batch.append
        # only the consumer pops: the items present now stay until it does
        for _ in range(min(max_items, len(self._items))):
            item = popleft()
            append(item)
            # ``type(item) is None`` is never true, so no stop_type means no
            # extra branch beyond this single identity check
            if type(item) is stop_type:
                break
        return batch

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def peek(self) -> Optional[Any]:
        """Return the head item without removing it (None when empty)."""
        try:
            return self._items[0]
        except IndexError:
            return None
