"""Tests for the queue substrate (SPSC, MPSC, private queues, queue-of-queues)."""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.errors import QueryFailedError
from repro.queues.mpsc import MPSCQueue
from repro.queues.private_queue import CallRequest, END, EndMarker, PrivateQueue, SyncRequest
from repro.queues.qoq import QueueOfQueues, SHUTDOWN
from repro.queues.spsc import SPSCQueue
from repro.util.counters import Counters


class TestSPSC:
    def test_fifo_order(self):
        queue = SPSCQueue()
        for i in range(100):
            queue.put(i)
        assert [queue.get() for _ in range(100)] == list(range(100))

    def test_get_blocks_until_put(self):
        queue = SPSCQueue()
        result = []

        def consumer():
            result.append(queue.get())

        thread = threading.Thread(target=consumer)
        thread.start()
        queue.put("hello")
        thread.join(timeout=5)
        assert result == ["hello"]

    def test_close_returns_none_when_drained(self):
        queue = SPSCQueue()
        queue.put(1)
        queue.close()
        assert queue.get() == 1
        assert queue.get() is None

    def test_try_get(self):
        queue = SPSCQueue()
        assert queue.try_get() == (False, None)
        queue.put(3)
        assert queue.try_get() == (True, 3)

    def test_peek_and_len(self):
        queue = SPSCQueue()
        assert queue.peek() is None
        queue.put("x")
        assert queue.peek() == "x"
        assert len(queue) == 1

    def test_timeout_returns_none(self):
        assert SPSCQueue().get(timeout=0.01) is None

    def test_no_lost_wakeup_when_put_skips_the_lock(self):
        # put notifies only while the consumer says it is waiting; switching
        # threads every microsecond interleaves that flag with every step of
        # get, and a lost wakeup would leave the consumer asleep for good
        count, queue, received = 50_000, SPSCQueue(), []

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
        queue = SPSCQueue()
        for item in items:
            queue.put(item)
        out = [queue.get() for _ in items]
        assert out == items


class TestMPSC:
    def test_many_producers_one_consumer(self):
        queue = MPSCQueue()
        per_producer = 200
        producers = 8

        def produce(tag):
            for i in range(per_producer):
                queue.put((tag, i))

        threads = [threading.Thread(target=produce, args=(t,)) for t in range(producers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        queue.close()
        items = []
        while (item := queue.get()) is not None:
            items.append(item)
        assert len(items) == per_producer * producers
        # per-producer FIFO is preserved even though producers interleave
        for tag in range(producers):
            mine = [i for (t, i) in items if t == tag]
            assert mine == list(range(per_producer))

    def test_put_after_close_rejected(self):
        queue = MPSCQueue()
        queue.close()
        with pytest.raises(RuntimeError):
            queue.put(1)


class TestPrivateQueue:
    def test_end_marker_is_singleton(self):
        assert EndMarker() is END

    def test_enqueue_call_counts_and_invalidates_sync(self):
        counters = Counters()
        pq = PrivateQueue(counters=counters)
        pq.synced = True
        pq.enqueue_call(CallRequest(fn=lambda: None))
        assert pq.synced is False
        assert counters.get("async_calls") == 1
        assert counters.get("pq_enqueues") == 1

    def test_enqueue_query_returns_result_box(self):
        pq = PrivateQueue()
        request = CallRequest(fn=lambda: 21 * 2)
        box = pq.enqueue_query(request)
        dequeued = pq.dequeue()
        dequeued.execute()
        assert box.wait(timeout=1) == 42

    def test_query_error_propagates(self):
        pq = PrivateQueue()

        def boom():
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

    def test_end_closes_block(self):
        pq = PrivateQueue()
        pq.enqueue_end()
        assert pq.closed_by_client
        assert isinstance(pq.dequeue(), EndMarker)

    def test_payload_bytes_counted(self):
        counters = Counters()
        pq = PrivateQueue(counters=counters)
        pq.enqueue_call(CallRequest(fn=lambda: None, payload_bytes=123))
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
            pq.enqueue_call(CallRequest(fn=lambda: None))
        batch = pq.dequeue_batch(3, timeout=0.0)
        assert len(batch) == 3
        assert len(pq.dequeue_batch(10, timeout=0.0)) == 2
        assert pq.dequeue_batch(10, timeout=0.0) == []

    def test_dequeue_batch_never_crosses_end_marker(self):
        # private queues are reused across separate blocks: a batch must not
        # leak the next block's requests past this block's END
        pq = PrivateQueue()
        pq.enqueue_call(CallRequest(fn=lambda: None))
        pq.enqueue_end()
        pq.reset_for_reuse()
        pq.enqueue_call(CallRequest(fn=lambda: None))
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
