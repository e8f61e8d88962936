"""The threaded execution backend: one OS thread per handler and client.

This is the execution model of the original reproduction (and of the paper's
C implementation): handlers are real threads draining their queue-of-queues,
clients are real threads logging requests, and blocking uses the condition
variables built into the queue substrate.  The backend therefore has very
little to do — it only owns thread creation/joining and the polling loops
that let a parked handler notice runtime shutdown.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional

from repro.backends.base import ExecutionBackend, ThreadClients
from repro.queues.qoq import SHUTDOWN

#: how often a handler parked on an open private queue re-checks for shutdown
_PQ_POLL_SECONDS = 0.05


class ThreadedBackend(ExecutionBackend):
    """Execute handlers and clients on OS threads (wall-clock time)."""

    name = "threads"

    def __init__(self) -> None:
        self.runtime: Any = None
        self._bind_clients(ThreadClients())

    # ------------------------------------------------------------------
    # handler plumbing: Handler._loop on a thread, blocking in the queues
    # ------------------------------------------------------------------
    def start_handler(self, handler: Any) -> None:
        thread = threading.Thread(target=handler._loop, name=f"handler:{handler.name}",
                                  daemon=handler.daemon)
        handler._thread = thread
        handler.owner.bind_thread(thread)
        thread.start()

    def stop_handler(self, handler: Any, timeout: float = 5.0) -> None:
        thread = handler._thread
        if thread is not None:
            thread.join(timeout=timeout)

    def handler_next_queue(self, handler: Any) -> Optional[Any]:
        """Block until the next private queue is available (rule *run*).

        Returns ``None`` when the handler should shut down (queue-of-queues
        closed and drained).
        """
        # qoq.dequeue distinguishes SHUTDOWN (closed and drained) from a
        # timeout; without a timeout the only non-queue outcome is SHUTDOWN.
        private_queue = handler.qoq.dequeue()
        return None if private_queue is SHUTDOWN else private_queue

    def handler_next_batch(self, handler: Any, private_queue: Any,
                           max_items: int) -> Optional[List[Any]]:
        """Block until request(s) are available on ``private_queue``.

        Returns a non-empty batch of requests (at most ``max_items``, never
        crossing an END marker) or ``None`` when the handler should abandon
        the queue because the runtime is shutting down.
        """
        while True:
            batch = private_queue.dequeue_batch(max_items, timeout=_PQ_POLL_SECONDS)
            if batch:
                return batch
            # nothing arrived yet; keep waiting unless we are shutting down
            # and the client already closed the block (defensive: a client
            # crash without END must not wedge the handler forever).
            if not handler._stop.is_set() or len(private_queue) != 0:
                continue
            if private_queue.closed_by_client:
                return None
            if handler.qoq.closed:
                # runtime shutting down with an abandoned reservation
                return None
