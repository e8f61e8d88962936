"""Handlers: the active objects of the SCOOP/Qs runtime.

A handler owns a set of objects and a *queue of queues* of requests
(Fig. 4).  Its main loop is a direct transcription of Fig. 7 of the paper:
repeatedly dequeue a private queue from the queue-of-queues (rule *run*),
drain calls out of it until the END marker (rule *end*), then move to the
next private queue.

The loop itself is execution-backend agnostic: *what* happens to a request
is decided here, while *how the handler blocks* (OS thread + condition
variables, or a virtual-time scheduler task) is delegated to the runtime's
:class:`~repro.backends.base.ExecutionBackend`.  Draining uses the batched
fast path of :meth:`~repro.queues.private_queue.PrivateQueue.dequeue_batch`:
up to ``config.qoq_batch`` requests per blocking acquisition, with the
``qoq_batch_drains``/``qoq_batch_size_sum`` counters recording how well the
batching amortises.

Two locks exist purely to reproduce protocol variants evaluated in the
paper:

* ``reservation_lock`` — only used when the queue-of-queues optimization is
  *disabled* (the original lock-based SCOOP protocol): a client holds it for
  its entire separate block, serialising clients (Fig. 2).
* ``spinlock`` — the per-handler lock used to make *multi*-handler
  reservations atomic (Section 3.3); held only for the few instructions
  needed to enqueue the private queues.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, List, Optional

from repro.backends.base import ExecutionBackend
from repro.backends.threaded import ThreadedBackend
from repro.config import QsConfig
from repro.core.region import HandlerOwner, SeparateObject, SeparateRef
from repro.errors import HandlerShutdownError
from repro.queues.private_queue import (
    CallRequest, EndMarker, PrivateQueue, SyncRequest, feature_name)
from repro.queues.qoq import QueueOfQueues
from repro.util.counters import Counters
from repro.util.tracing import NullTracer, Tracer

#: process-wide creation order, used to order multi-handler lock
#: acquisitions deterministically (``id()`` varies between runs)
_handler_seq = itertools.count()


class Handler:
    """An active object: one thread of execution applying client requests."""

    def __init__(
        self,
        name: str,
        config: Optional[QsConfig] = None,
        counters: Optional[Counters] = None,
        daemon: bool = True,
        tracer: "Tracer | NullTracer | None" = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self.name = name
        self.config = config or QsConfig.all()
        self.counters = counters or Counters()
        # explicit None check: an empty Tracer has len() == 0 and is falsy
        self.tracer = tracer if tracer is not None else NullTracer()
        self.backend = backend if backend is not None else ThreadedBackend()
        #: deterministic creation index (canonical lock-ordering key)
        self.seq = next(_handler_seq)
        self.daemon = daemon
        self.owner = HandlerOwner(name)
        self.qoq = QueueOfQueues(self.counters)
        #: held for a whole separate block in the lock-based (non-QoQ) protocol
        self.reservation_lock = self.backend.create_lock()
        #: makes multi-handler reservations atomic (Section 3.3)
        self.spinlock = self.backend.create_lock()
        #: exceptions raised by asynchronous calls (no client is waiting)
        self.failures: List[BaseException] = []
        self._stop = threading.Event()
        self._started = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Handler":
        if not self._started:
            self._started = True
            self.backend.start_handler(self)
        return self

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting reservations, drain outstanding work and join."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._stop.set()
        self.qoq.close()
        self.backend.stop_handler(self, timeout=timeout)

    @property
    def alive(self) -> bool:
        return self._started and self._thread is not None and self._thread.is_alive()

    @property
    def thread(self) -> Optional[threading.Thread]:
        return self._thread

    # ------------------------------------------------------------------
    # object hosting
    # ------------------------------------------------------------------
    def adopt(self, obj: Any) -> SeparateRef:
        """Make ``obj`` a separate object handled by this handler.

        The backend decides where the object actually lives: in-memory
        backends keep it here (and bind the ownership check), the process
        backend ships it to the handler's process and hands back a remote
        handle for the ref to wrap.
        """
        placed = self.backend.adopt_object(self, obj)
        if placed is obj and isinstance(obj, SeparateObject):
            obj._scoop_bind(self.owner)
        return SeparateRef(self, placed)

    def create(self, cls: Callable[..., Any], *args: Any, **kwargs: Any) -> SeparateRef:
        """Instantiate ``cls(*args, **kwargs)`` as a separate object here."""
        obj = cls(*args, **kwargs)
        return self.adopt(obj)

    # ------------------------------------------------------------------
    # the handler loop (Fig. 7)
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        backend, max_items = self.backend, max(1, self.config.qoq_batch)
        while True:
            private_queue = backend.handler_next_queue(self)
            if private_queue is None:
                # queue-of-queues closed and drained: no more work, shut down
                break
            while True:
                batch = backend.handler_next_batch(self, private_queue, max_items)
                # None: runtime shutting down with the block abandoned (client
                # crashed without END, or the reservation was never used)
                if batch is None or self.drain_batch(private_queue, batch):
                    break

    def abandons(self, private_queue: PrivateQueue) -> bool:
        """Whether a handler waiting on an empty ``private_queue`` gives up the block.

        Only during shutdown: the stop flag is set, the queue is empty, and
        either the client already ended the block or no client can reserve
        this handler again (a client that crashed without END, or a
        reservation never used, must not wedge the handler forever).  The
        backends' ``handler_next_batch`` waits ask this between two waits.
        """
        return (self._stop.is_set() and len(private_queue) == 0
                and (private_queue.closed_by_client or self.qoq.closed))

    def drain_batch(self, private_queue: PrivateQueue, batch: "list") -> bool:
        """Apply one drained batch of requests; return True at END.

        This is the backend-independent half of rule *end*/*sync*/*call*
        dispatch: :meth:`_loop` calls it after the blocking
        ``handler_next_batch`` (threads, sim, and the process backend's
        worker, whose ``HandlerServer`` turns frames into these requests
        and files each block in this handler's ``qoq`` under its ticket),
        the asyncio backend's coroutine loop after awaiting the handler's
        wake-up event (set by ``notify_handler``) — so every backend
        executes requests (and accounts for them) identically.
        """
        self.counters.count_drain(len(batch))
        traced = self.tracer.enabled
        for request in batch:
            # calls first: they are what a busy queue is made of
            if type(request) is CallRequest:
                self.counters.bump("calls_executed")
                if traced:
                    # packaged queries (a result box is attached) are recorded
                    # apart so the guarantee checker tells them from commands
                    kind = "exec" if request.result is None else "exec-query"
                    block = request.block if request.block is not None else private_queue.block_id
                    self.tracer.record(kind, self.name, client=private_queue.client_name,
                                       feature=feature_name(request.fn), block=block)
                try:
                    request.execute()
                except BaseException as exc:  # asynchronous call failed
                    self.failures.append(exc)
                continue
            if isinstance(request, EndMarker):
                # rule *end*: switch to the next private queue (a batch
                # never extends past an END marker)
                if traced:
                    self.tracer.record("end-block", self.name, client=private_queue.client_name,
                                       block=private_queue.block_id)
                return True
            if isinstance(request, SyncRequest):
                # rule *sync*: release the waiting client; we then park on
                # this queue until the client logs more requests (or END)
                request.fire()
                continue
            raise HandlerShutdownError(
                f"handler {self.name!r} received unknown request {request!r}")
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Handler({self.name!r}, alive={self.alive})"
