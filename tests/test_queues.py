"""Tests for the queue substrate (the FIFO, private queues, queue-of-queues)."""

import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from repro.config import QsConfig
from repro.core.client import Client
from repro.core.handler import Handler
from repro.errors import HandlerShutdownError, QueryFailedError
from repro.queues.fifo import FifoQueue
from repro.queues.private_queue import CallRequest, END, EndMarker, PrivateQueue, SyncRequest
from repro.queues.qoq import QueueOfQueues, SHUTDOWN
from repro.util.counters import Counters


class TestFifo:
    def test_fifo_order(self):
        queue = FifoQueue()
        for i in range(100):
            queue.put(i)
        assert [queue.get() for _ in range(100)] == list(range(100))

    def test_get_blocks_until_put(self):
        queue = FifoQueue()
        result = []

        def consumer():
            result.append(queue.get())

        thread = threading.Thread(target=consumer)
        thread.start()
        queue.put("hello")
        thread.join(timeout=5)
        assert result == ["hello"]

    def test_close_returns_none_when_drained(self):
        queue = FifoQueue()
        queue.put(1)
        queue.close()
        assert queue.get() == 1
        assert queue.get() is None

    def test_peek_and_len(self):
        queue = FifoQueue()
        assert queue.peek() is None
        queue.put("x")
        assert queue.peek() == "x"
        assert len(queue) == 1

    def test_timeout_returns_none(self):
        assert FifoQueue().get(timeout=0.01) is None

    def test_no_lost_wakeup_when_put_skips_the_lock(self):
        # put notifies only while the consumer says it is waiting; switching
        # threads every microsecond interleaves that flag with every step of
        # get, and a lost wakeup would leave the consumer asleep for good
        count, queue, received = 50_000, FifoQueue(), []

        def consume() -> None:
            for _ in range(count):
                received.append(queue.get(timeout=None))

        consumer = threading.Thread(target=consume, daemon=True)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer.start()
            for i in range(count):
                queue.put(i)
            consumer.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not consumer.is_alive(), f"consumer stuck after {len(received)} items"
        assert received == list(range(count))

    @given(st.lists(st.integers(), max_size=200))
    def test_property_preserves_order(self, items):
        queue = FifoQueue()
        for item in items:
            queue.put(item)
        out = [queue.get() for _ in items]
        assert out == items


class TestFifoManyProducers:
    def test_many_producers_one_sleeping_consumer(self):
        # the queue-of-queues shape: put skips the lock unless the consumer
        # says it is waiting, and with many producers one of them clears the
        # flag for the others.  The consumer is parked before the first put
        # and switching threads every microsecond interleaves the flag with
        # every step of get, so a lost wakeup (or a put that never
        # notifies) leaves the consumer asleep past the deadline.
        producers, per_producer, queue, received = 8, 5_000, FifoQueue(), []

        def consume() -> None:
            for _ in range(producers * per_producer):
                received.append(queue.get(timeout=None))

        def produce(tag: int) -> None:
            for i in range(per_producer):
                queue.put((tag, i))

        consumer = threading.Thread(target=consume, daemon=True)
        threads = [threading.Thread(target=produce, args=(t,), daemon=True)
                   for t in range(producers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer.start()
            deadline = time.monotonic() + 5.0
            while not queue._waiting and time.monotonic() < deadline:
                time.sleep(0.001)
            assert queue._waiting, "the consumer never went to sleep"
            for t in threads:
                t.start()
            consumer.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not consumer.is_alive(), f"consumer stuck after {len(received)} items"
        assert len(received) == producers * per_producer
        # per-producer FIFO is preserved even though producers interleave
        for tag in range(producers):
            assert [i for (t, i) in received if t == tag] == list(range(per_producer))


class TestPrivateQueue:
    def test_end_marker_is_singleton(self):
        assert EndMarker() is END

    def test_enqueue_call_counts_and_invalidates_sync(self):
        counters = Counters()
        pq = PrivateQueue(counters=counters)
        pq.synced = True
        pq.enqueue_call(CallRequest(fn=lambda _target: None))
        assert pq.synced is False
        assert counters.get("async_calls") == 1
        assert counters.get("pq_enqueues") == 1

    def test_enqueue_query_returns_result_box(self):
        pq = PrivateQueue()
        request = CallRequest(fn=lambda obj, k: obj * k, target=21, args=(2,))
        box = pq.enqueue_query(request)
        dequeued = pq.dequeue()
        dequeued.execute()
        assert box.wait(timeout=1) == 42

    def test_query_error_propagates(self):
        pq = PrivateQueue()

        def boom(_target):
            raise RuntimeError("kaput")

        box = pq.enqueue_query(CallRequest(fn=boom))
        pq.dequeue().execute()
        with pytest.raises(QueryFailedError):
            box.wait(timeout=1)

    def test_sync_request_release(self):
        pq = PrivateQueue()
        request = pq.enqueue_sync()
        assert isinstance(pq.dequeue(), SyncRequest)
        request.fire()
        assert request.release.is_set()

    def test_unsynced_query_is_the_sync_marker_and_its_body_runs_here(self):
        counters, handler = Counters(), Handler("h")
        pq = PrivateQueue(handler, counters)
        request = pq.enqueue_query_sync(object(), len, (), {})
        assert isinstance(request, SyncRequest) and request.outcome is None
        assert isinstance(request.release, threading.Event)
        assert pq.dequeue_batch(8, timeout=0) == [request]
        assert counters.get("sync_roundtrips") == 1 and counters.get("pq_enqueues") == 1
        # the synced body: a named method looked up on the target, or a
        # callable applied to it, each with the query's arguments
        assert pq.invoke("a-b", "split", ("-",), {}) == ["a", "b"]
        assert pq.invoke([3, 1, 2], sorted, (), {"reverse": True}) == [3, 2, 1]
        assert len(pq) == 0

    def test_end_closes_block(self):
        pq = PrivateQueue()
        pq.enqueue_end()
        assert pq.closed_by_client
        assert isinstance(pq.dequeue(), EndMarker)

    def test_payload_bytes_counted(self):
        counters = Counters()
        pq = PrivateQueue(counters=counters)
        pq.enqueue_call(CallRequest(fn=lambda _target: None, payload_bytes=123))
        assert counters.get("bytes_copied") == 123

    def test_reset_for_reuse(self):
        pq = PrivateQueue()
        pq.enqueue_end()
        pq.synced = True
        pq.reset_for_reuse()
        assert not pq.synced
        assert not pq.closed_by_client

    def test_dequeue_batch_drains_up_to_limit(self):
        pq = PrivateQueue()
        for _ in range(5):
            pq.enqueue_call(CallRequest(fn=lambda _target: None))
        batch = pq.dequeue_batch(3, timeout=0.0)
        assert len(batch) == 3
        assert len(pq.dequeue_batch(10, timeout=0.0)) == 2
        assert pq.dequeue_batch(10, timeout=0.0) == []

    def test_dequeue_batch_never_crosses_end_marker(self):
        # private queues are reused across separate blocks: a batch must not
        # leak the next block's requests past this block's END
        pq = PrivateQueue()
        pq.enqueue_call(CallRequest(fn=lambda _target: None))
        pq.enqueue_end()
        pq.reset_for_reuse()
        pq.enqueue_call(CallRequest(fn=lambda _target: None))
        batch = pq.dequeue_batch(10, timeout=0.0)
        assert len(batch) == 2
        assert isinstance(batch[-1], EndMarker)
        assert len(pq) == 1  # the next block's request stays queued

    def test_dequeue_batch_end_first(self):
        pq = PrivateQueue()
        pq.enqueue_end()
        batch = pq.dequeue_batch(10, timeout=0.0)
        assert batch == [END]


class TestQueueOfQueues:
    def test_fifo_of_private_queues(self):
        counters = Counters()
        qoq = QueueOfQueues(counters)
        queues = [PrivateQueue() for _ in range(5)]
        for queue in queues:
            qoq.enqueue(queue)
        assert counters.get("qoq_enqueues") == 5
        assert counters.get("reservations") == 5
        assert [qoq.dequeue() for _ in range(5)] == queues

    def test_close_signals_no_more_work(self):
        qoq = QueueOfQueues()
        qoq.close()
        assert qoq.dequeue() is SHUTDOWN
        assert qoq.closed

    def test_reserve_after_close_rejected(self):
        # the closed check lives where a reservation starts: Client.reserve
        # refuses a closed queue-of-queues before anything is enqueued
        handler = Handler("closed")
        handler.qoq.close()
        with pytest.raises(HandlerShutdownError, match="closed"):
            Client(QsConfig.all()).reserve([handler])
        assert len(handler.qoq) == 0 and handler.counters.get("qoq_enqueues") == 0

    def test_timeout_is_distinguishable_from_shutdown(self):
        # regression: both used to surface as None, so a handler could
        # mistake a timed-out poll for a shutdown request (or vice versa)
        qoq = QueueOfQueues()
        assert qoq.dequeue(timeout=0.01) is None          # timed out, still open
        assert qoq.try_dequeue() is None
        queue = PrivateQueue()
        qoq.enqueue(queue)
        qoq.close()
        assert qoq.dequeue(timeout=0.01) is queue         # drain continues after close
        assert qoq.dequeue(timeout=0.01) is SHUTDOWN      # closed *and* drained
        assert qoq.try_dequeue() is SHUTDOWN
        assert repr(SHUTDOWN) == "SHUTDOWN"

    def test_concurrent_reservations_all_arrive(self):
        qoq = QueueOfQueues()

        def reserve():
            for _ in range(50):
                qoq.enqueue(PrivateQueue())

        threads = [threading.Thread(target=reserve) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(qoq) == 200


class TestTickets:
    def test_a_skip_wakes_a_consumer_parked_on_the_missing_ticket(self):
        qoq, got = QueueOfQueues(), []
        later = PrivateQueue()
        qoq.file(1, later)
        consumer = threading.Thread(target=lambda: got.append(qoq.dequeue()), daemon=True)
        consumer.start()
        deadline = time.monotonic() + 5.0
        while not qoq._queue._waiting and time.monotonic() < deadline:
            time.sleep(0.001)
        assert qoq._queue._waiting and not got, "the consumer must park on ticket 0"
        qoq.skip(0)
        consumer.join(timeout=5.0)
        assert not consumer.is_alive(), "the skip did not wake the parked consumer"
        assert got == [later] and qoq.next_ticket == 2

    def test_many_reservers_one_sleeping_handler_get_increasing_tickets(self):
        # TestFifoManyProducers on the queue-of-queues: issuing a ticket and
        # filing under it are two steps, so reservers overtake each other
        # between them; the consumer must still see every queue once, in
        # strictly increasing ticket order
        producers, per_producer, qoq = 8, 5_000, QueueOfQueues()
        tickets = [[] for _ in range(producers)]
        received = []

        def consume() -> None:
            for _ in range(producers * per_producer):
                received.append(qoq.dequeue())

        def produce(tag: int) -> None:
            for i in range(per_producer):
                tickets[tag].append(qoq.enqueue((tag, i)))

        consumer = threading.Thread(target=consume, daemon=True)
        threads = [threading.Thread(target=produce, args=(t,), daemon=True)
                   for t in range(producers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer.start()
            deadline = time.monotonic() + 5.0
            while not qoq._queue._waiting and time.monotonic() < deadline:
                time.sleep(0.001)
            assert qoq._queue._waiting, "the consumer never went to sleep"
            for t in threads:
                t.start()
            consumer.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not consumer.is_alive(), f"consumer stuck after {len(received)} queues"
        assert [tickets[tag][i] for tag, i in received] == list(range(producers * per_producer))
        for tag in range(producers):
            assert [i for (t, i) in received if t == tag] == list(range(per_producer))
        assert qoq.counters.get("reservations") == producers * per_producer
