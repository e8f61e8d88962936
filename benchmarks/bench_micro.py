"""Micro-benchmarks of the runtime substrate: queues, sync analysis, semantics.

These are the components every workload exercises; keeping an eye on their
cost is what the paper's Section 3.1 is about ("these optimizations are
important as they are involved in all communication").
"""

from __future__ import annotations

from repro.compiler.builder import fig14_loop, straightline_queries
from repro.compiler.lowering import lower_queries
from repro.compiler.sync_elision import SyncElisionPass
from repro.queues.fifo import FifoQueue
from repro.queues.private_queue import CallRequest, PrivateQueue
from repro.queues.qoq import QueueOfQueues
from repro.semantics.explorer import Explorer
from repro.semantics.programs import fig1_two_clients


def test_fifo_throughput(benchmark):
    def run():
        queue = FifoQueue()
        for i in range(5_000):
            queue.put(i)
        total = 0
        for _ in range(5_000):
            total += queue.get()
        return total

    assert benchmark(run) == sum(range(5_000))


def test_private_queue_enqueue_dequeue(benchmark):
    def run():
        pq = PrivateQueue()
        for _ in range(2_000):
            pq.enqueue_call(CallRequest(fn=lambda _target: None))
        drained = 0
        while len(pq):
            pq.dequeue(timeout=0.0)
            drained += 1
        return drained

    assert benchmark(run) == 2_000


def test_qoq_enqueue(benchmark):
    def run():
        qoq = QueueOfQueues()
        for _ in range(2_000):
            qoq.enqueue(PrivateQueue())
        return len(qoq)

    assert benchmark(run) == 2_000


def test_sync_elision_pass(benchmark):
    function = lower_queries(straightline_queries("h", 200))

    def run():
        _, report = SyncElisionPass().run(function)
        return report.removed_syncs

    assert benchmark(run) == 199


def test_sync_analysis_fig14(benchmark):
    function = fig14_loop()

    def run():
        _, report = SyncElisionPass().run(function)
        return report.removed_syncs

    assert benchmark(run) == 2


def test_semantics_exploration_fig1(benchmark):
    def run():
        return Explorer().explore(fig1_two_clients()).states_visited

    assert benchmark(run) > 50
