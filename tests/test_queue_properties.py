"""Property-based tests (hypothesis) for the queue substrate invariants.

Three contracts the runtime's correctness leans on:

* the queue-of-queues preserves each client's reservation order (per-client
  FIFO — the basis of reasoning guarantee 2);
* ``PrivateQueue.dequeue_batch`` is observationally equivalent to repeated
  ``dequeue`` — batching is a mechanical fast path, not a semantic change —
  and never lets a batch cross an END marker;
* ``QueueOfQueues.dequeue`` keeps "timed out, try again" (``None``) distinct
  from "closed and drained" (``SHUTDOWN``) for every operation sequence;
* the queue-of-queues hands queues out strictly by ticket, whatever order
  they are filed, skipped and closed in (the process worker's case, where
  the parent issues the tickets and frames race on the wire).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.queues.private_queue import CallRequest, END, EndMarker, PrivateQueue
from repro.queues.qoq import SHUTDOWN, QueueOfQueues


@st.composite
def ticket_scripts(draw):
    """Tickets ``0..n-1``, each filed, skipped or both (in either order),
    plus ``close(n)`` and non-blocking dequeues, all in any order."""
    n = draw(st.integers(min_value=0, max_value=8))
    events = [("close", n)]
    for ticket in range(n):
        fate = draw(st.sampled_from(["file", "skip", "both"]))
        if fate != "skip":
            events.append(("file", ticket))
        if fate != "file":
            events.append(("skip", ticket))
    events += [("dequeue", None)] * draw(st.integers(min_value=0, max_value=12))
    events += [("try", None)] * draw(st.integers(min_value=0, max_value=12))
    return n, draw(st.permutations(events))

#: a client's reservation stream: client id -> number of private queues
clients_strategy = st.dictionaries(
    keys=st.integers(min_value=0, max_value=4),
    values=st.integers(min_value=1, max_value=6),
    min_size=1,
    max_size=5,
)

#: an interleaved request stream: "c" = call, "e" = END (block boundary)
requests_strategy = st.lists(st.sampled_from("ccce"), min_size=0, max_size=40)


def make_call(tag: int) -> CallRequest:
    return CallRequest(fn=f"call-{tag}")


class TestQoqPerClientFifo:
    @given(clients=clients_strategy, order=st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_interleaved_reservations_keep_per_client_order(self, clients, order):
        """However client streams interleave, each client's queues stay FIFO."""
        qoq = QueueOfQueues()
        pending = {client: list(range(count)) for client, count in clients.items()}
        tagged = []
        while pending:
            client = order.choice(sorted(pending))
            seq = pending[client].pop(0)
            if not pending[client]:
                del pending[client]
            queue = PrivateQueue()
            queue.client_name = f"client-{client}"
            queue.block_id = seq
            qoq.enqueue(queue)
            tagged.append((client, seq))

        drained = []
        while True:
            item = qoq.try_dequeue()
            if item is None:
                break
            drained.append((int(item.client_name.split("-")[1]), item.block_id))

        # global FIFO implies per-client FIFO; check both explicitly
        assert drained == tagged
        for client in clients:
            seqs = [seq for c, seq in drained if c == client]
            assert seqs == sorted(seqs)


class TestBatchEquivalence:
    @given(script=requests_strategy, batch_size=st.integers(min_value=1, max_value=7))
    @settings(max_examples=80)
    def test_dequeue_batch_equals_repeated_dequeue(self, script, batch_size):
        plain, batched = PrivateQueue(), PrivateQueue()
        for index, op in enumerate(script):
            for queue in (plain, batched):
                if op == "c":
                    queue.enqueue_call(make_call(index))
                else:
                    queue._queue.put(END)  # raw END: enqueue_end() closes the queue

        one_by_one = []
        while True:
            item = plain.dequeue(timeout=0)
            if item is None:
                break
            one_by_one.append(item)

        in_batches = []
        while True:
            batch = batched.dequeue_batch(batch_size, timeout=0)
            if not batch:
                break
            # a batch never crosses a block boundary: END only ever comes last
            assert all(not isinstance(item, EndMarker) for item in batch[:-1])
            assert len(batch) <= batch_size
            in_batches.extend(batch)

        def describe(items):
            return [
                "END" if isinstance(item, EndMarker) else item.fn
                for item in items
            ]

        assert describe(in_batches) == describe(one_by_one)


class TestTimeoutVersusShutdown:
    @given(script=st.lists(st.sampled_from("edc"), min_size=0, max_size=20))
    @settings(max_examples=60)
    def test_none_means_retry_shutdown_means_done(self, script):
        """``None`` only while open; ``SHUTDOWN`` only after close + drain."""
        qoq = QueueOfQueues()
        backlog = 0
        for op in script:
            if op == "e":
                qoq.enqueue(PrivateQueue())
                backlog += 1
            elif op == "d":
                item = qoq.dequeue(timeout=0)
                if backlog:
                    assert item is not SHUTDOWN and item is not None
                    backlog -= 1
                else:
                    assert item is None, "an open empty queue times out with None"
            else:
                item = qoq.try_dequeue()
                if backlog:
                    assert item is not SHUTDOWN and item is not None
                    backlog -= 1
                else:
                    assert item is None

        qoq.close()
        # after close: the backlog still drains, then SHUTDOWN forever
        for _ in range(backlog):
            assert qoq.dequeue(timeout=0) not in (None, SHUTDOWN)
        assert qoq.dequeue(timeout=0) is SHUTDOWN
        assert qoq.try_dequeue() is SHUTDOWN
        assert qoq.dequeue(timeout=0.001) is SHUTDOWN


class TestTicketOrder:
    @given(script=ticket_scripts())
    @settings(max_examples=300)
    def test_queues_are_handed_out_by_ticket_whatever_the_filing_order(self, script):
        n, events = script
        qoq = QueueOfQueues()
        queues = [PrivateQueue() for _ in range(n)]
        ticket_of = {id(queue): ticket for ticket, queue in enumerate(queues)}
        first = {}  # ticket -> the first entry filed under it ("file" or "skip")
        due = 0     # the reference: the ticket handed out next
        closed = False
        handed_out = []

        def expected():
            """What the next dequeue must return, by the ticket rule alone."""
            nonlocal due
            while first.get(due) == "skip":
                due += 1
            if first.get(due) == "file":
                return queues[due]
            return SHUTDOWN if closed and due == n else None

        def take(item):
            nonlocal due
            assert item is expected()
            if item is not None and item is not SHUTDOWN:
                handed_out.append(ticket_of[id(item)])
                due += 1

        for kind, ticket in events:
            if kind == "file":
                qoq.file(ticket, queues[ticket])
                first.setdefault(ticket, "file")
            elif kind == "skip":
                qoq.skip(ticket)
                first.setdefault(ticket, "skip")
            elif kind == "close":
                qoq.close(ticket)
                closed = True
            else:
                take(qoq.dequeue(timeout=0) if kind == "dequeue" else qoq.try_dequeue())

        # everything is filed now: the rest drains, then SHUTDOWN for good
        while True:
            item = qoq.try_dequeue()
            take(item)
            if item is SHUTDOWN:
                break
        assert qoq.dequeue(timeout=0) is SHUTDOWN
        # each ticket filed before any skip of it is handed out exactly once,
        # in ticket order; a skip filed first drops a later filing
        assert handed_out == [t for t in range(n) if first[t] == "file"]
