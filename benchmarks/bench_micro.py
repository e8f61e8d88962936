"""Micro-benchmarks of the runtime substrate: queues, sync analysis, semantics.

These are the components every workload exercises; keeping an eye on their
cost is what the paper's Section 3.1 is about ("these optimizations are
important as they are involved in all communication").

``test_separate_block`` times whole separate blocks on ``threads`` at level
``all``, one client and one handler: a query-only block (reservation and
ticket, the query, the release) and a block of 32 commands plus a query.
It reports microseconds and profiled calls per block in ``extra_info``
(``--benchmark-json``) and prints them (``-s``).
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro import QsRuntime, SeparateObject, command, query
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


class _Log(SeparateObject):
    def __init__(self):
        self.logged = 0
        self.asked = 0

    @command
    def log(self, _item):
        self.logged += 1

    @query
    def progress(self):
        self.asked += 1
        return self.logged + self.asked


BLOCKS = 2_000


@pytest.mark.parametrize("commands", [0, 32])
def test_separate_block(benchmark, commands):
    items = list(range(commands))
    blocks = []
    with QsRuntime("all", backend="threads") as rt:
        ref = rt.new_handler("log").create(_Log)

        def block():
            with rt.separate(ref) as log:
                for item in items:
                    log.log(item)
                blocks.append(None)
                return log.progress()

        def run():
            for _ in range(BLOCKS):
                block()

        run()  # warm: the proxy type is derived and the queue cached
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(100):
            block()
        profile.disable()
        # less the calls of block() itself and of its list append
        calls = pstats.Stats(profile).total_calls / 100 - 2
        benchmark(run)
        # every command and query so far ran, once each
        assert block() == (commands + 1) * len(blocks)
    benchmark.extra_info["calls_per_block"] = calls
    if benchmark.stats is not None:
        us = benchmark.stats.stats.median / BLOCKS * 1e6
        benchmark.extra_info["us_per_block"] = us
        print(f"\n{commands} commands + 1 query: {us:.1f} us and {calls:.0f} calls per block")
