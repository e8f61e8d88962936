"""Queue substrate of the SCOOP/Qs runtime.

The paper's runtime is built on two queue shapes (Section 3.1):

* a multiple-producer single-consumer queue (the *queue-of-queues*) that
  clients enqueue their private queues into, and
* a single-producer single-consumer queue (the *private queue*) a client
  shares with a handler to log calls.

Both are the one :class:`FifoQueue` (a deque whose consumer sleeps on a
condition only when it finds nothing).  On top of it sit the higher-level
:class:`PrivateQueue` (call queue with END/SYNC markers, the dynamic
``synced`` flag and the client side of the query path) and
:class:`QueueOfQueues` used by :mod:`repro.core`.
"""

from repro.queues.fifo import FifoQueue
from repro.queues.private_queue import CallRequest, END, EndMarker, PrivateQueue, SyncRequest
from repro.queues.qoq import QueueOfQueues, SHUTDOWN

__all__ = [
    "FifoQueue",
    "PrivateQueue",
    "QueueOfQueues",
    "CallRequest",
    "SyncRequest",
    "EndMarker",
    "END",
    "SHUTDOWN",
]
