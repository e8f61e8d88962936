"""Ablation benchmarks for the design choices called out in DESIGN.md.

Each ablation toggles exactly one feature of the full configuration and
measures a workload that is sensitive to it:

* queue-of-queues vs. a single locked request queue (contended counter);
* client-executed queries vs. handler-executed packaged queries (pull loop);
* dynamic vs. static sync coalescing on a regular access pattern;
* private-queue caching on vs. off (many short separate blocks);
* pull- vs. push-style data transfer (Section 3.4's discussion);
* sync elision alone vs. hoisting + elision on a loop whose only sync sits
  in the body (the "lift the sync out of the loop" case of Section 4.2);
* shared-memory private queues vs. the same requests as frames over a socket
  (Section 7's transport question);
* reference vs. expanded (copied) call arguments (Section 6's discussion of
  ownership transfer for expanded classes).
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.compiler.builder import FunctionBuilder
from repro.compiler.sync_elision import SyncElisionPass
from repro.compiler.sync_hoisting import SyncHoistingPass
from repro.config import QsConfig
from repro.core.api import command, query
from repro.core.expanded import Expanded
from repro.core.region import SeparateObject
from repro.core.runtime import QsRuntime
from repro.core.transfer import pull_array, push_elements
from repro.queues.socket_queue import FrameStream
from repro.workloads.concurrent.runner import run_mutex
from repro.workloads.params import TINY_CONCURRENT


class ArrayHolder(SeparateObject):
    def __init__(self, n):
        self.data = np.arange(float(n))

    @query
    def get(self, i):
        return self.data[i]

    @command
    def set(self, i, value):
        self.data[i] = value


N_ELEMENTS = 300


def _pull_workload(config: QsConfig) -> int:
    with QsRuntime(config) as rt:
        ref = rt.new_handler("holder").create(ArrayHolder, N_ELEMENTS)
        with rt.separate(ref) as proxy:
            out, report = pull_array(rt, proxy, lambda obj, i: obj.data[i], N_ELEMENTS)
        assert out[-1] == N_ELEMENTS - 1
        return report.sync_roundtrips


@pytest.mark.parametrize("use_qoq", [True, False], ids=["qoq", "locked-queue"])
def test_ablation_qoq(benchmark, use_qoq, bench_options):
    config = QsConfig.all().with_(use_qoq=use_qoq, name=f"qoq={use_qoq}")

    def workload():
        with QsRuntime(config) as rt:
            return run_mutex(rt, TINY_CONCURRENT)

    result = benchmark.pedantic(workload, **bench_options)
    benchmark.extra_info["lock_acquisitions"] = result.counters["lock_acquisitions"]
    benchmark.extra_info["qoq_enqueues"] = result.counters["qoq_enqueues"]


@pytest.mark.parametrize("client_executed", [True, False], ids=["client-executed", "handler-executed"])
def test_ablation_query_execution(benchmark, client_executed, bench_options):
    config = QsConfig.all().with_(client_executed_queries=client_executed,
                                  dynamic_sync_coalescing=client_executed,
                                  static_sync_coalescing=client_executed,
                                  name=f"client-exec={client_executed}")
    roundtrips = benchmark.pedantic(lambda: _pull_workload(config), **bench_options)
    benchmark.extra_info["sync_roundtrips"] = roundtrips


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_ablation_sync_coalescing(benchmark, mode, bench_options):
    config = QsConfig.from_level(mode)
    roundtrips = benchmark.pedantic(lambda: _pull_workload(config), **bench_options)
    benchmark.extra_info["sync_roundtrips"] = roundtrips
    assert roundtrips <= 2  # both modes coalesce the per-element syncs


@pytest.mark.parametrize("cache", [True, False], ids=["pq-cache", "no-cache"])
def test_ablation_private_queue_cache(benchmark, cache, bench_options):
    config = QsConfig.all().with_(private_queue_cache=cache, name=f"cache={cache}")

    def workload():
        with QsRuntime(config) as rt:
            ref = rt.new_handler("holder").create(ArrayHolder, 8)
            for _ in range(200):  # many short separate blocks
                with rt.separate(ref) as proxy:
                    proxy.set(0, 1.0)
            return rt.stats()["reservations"]

    reservations = benchmark.pedantic(workload, **bench_options)
    benchmark.extra_info["reservations"] = reservations


@pytest.mark.parametrize("direction", ["pull", "push"])
def test_ablation_pull_vs_push(benchmark, direction, bench_options):
    config = QsConfig.all()

    def workload():
        with QsRuntime(config) as rt:
            ref = rt.new_handler("holder").create(ArrayHolder, N_ELEMENTS)
            with rt.separate(ref) as proxy:
                if direction == "pull":
                    out, report = pull_array(rt, proxy, lambda obj, i: obj.data[i], N_ELEMENTS)
                    return report
                values = list(range(N_ELEMENTS))
                report = push_elements(rt, proxy, lambda obj, i, v: obj.data.__setitem__(i, v), values)
                proxy.ask("get", 0)  # force completion
                return report

    report = benchmark.pedantic(workload, **bench_options)
    benchmark.extra_info["async_calls"] = report.async_calls
    benchmark.extra_info["sync_roundtrips"] = report.sync_roundtrips


def _body_only_sync_loop():
    """A pull loop whose only sync is inside the body (no pre-loop sync)."""
    b = FunctionBuilder("body_only_sync", entry="head")
    b.block("head").local("i := 0").jump("body")
    b.block("body").sync("h_p").local("x[i] := a[i]", handler="h_p").branch("body", "exit")
    b.block("exit").local("done").ret()
    return b.build()


@pytest.mark.parametrize("strategy", ["elide-only", "hoist+elide"])
def test_ablation_sync_hoisting(benchmark, strategy, bench_options):
    """How many per-iteration syncs survive with and without loop hoisting."""
    function = _body_only_sync_loop()

    def optimize():
        if strategy == "elide-only":
            _, report = SyncElisionPass().run(function)
            return report.removed_syncs
        _, report = SyncHoistingPass().run(function)
        return report.elision.removed_syncs if report.elision else 0

    removed = benchmark.pedantic(optimize, **bench_options)
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info["body_syncs_removed"] = removed
    # hoisting is what makes the body sync removable at all
    assert removed == (0 if strategy == "elide-only" else 1)


class _SocketCounter:
    def __init__(self):
        self.value = 0

    def increment(self, by=1):
        self.value += by

    def read(self):
        return self.value


@pytest.mark.parametrize("transport", ["shared-memory", "socket"])
def test_ablation_private_queue_transport(benchmark, transport, bench_options):
    """Per-request overhead of a private queue over a framed socket (Section 7)."""
    n_calls = 100

    def shared_memory():
        with QsRuntime(QsConfig.all()) as rt:
            ref = rt.new_handler("counter").create(ArrayHolder, 1)
            with rt.separate(ref) as proxy:
                for _ in range(n_calls):
                    proxy.set(0, 1.0)
                return proxy.ask("get", 0)

    def drain(stream, target):
        # the Fig. 7 inner loop with a socket as the queue: apply calls,
        # answer the sync, stop at END
        while True:
            frame = stream.recv()
            if frame["kind"] == "end":
                return
            value = getattr(target, frame["feature"])(*frame["args"])
            if frame["kind"] == "sync":
                stream.send({"kind": "result", "value": value})

    def socket_transport():
        a, b = socket.socketpair()
        client, handler = FrameStream(a), FrameStream(b)
        server = threading.Thread(target=drain, args=(handler, _SocketCounter()), daemon=True)
        server.start()
        for _ in range(n_calls):
            client.send({"kind": "call", "feature": "increment", "args": [1]})
        client.send({"kind": "sync", "feature": "read", "args": []})
        value = client.recv()["value"]
        client.send({"kind": "end"})
        server.join(timeout=10)
        client.close()
        handler.close()
        return value

    workload = shared_memory if transport == "shared-memory" else socket_transport
    benchmark.pedantic(workload, **bench_options)
    benchmark.extra_info["transport"] = transport
    benchmark.extra_info["requests"] = n_calls


class _Record(Expanded):
    def __init__(self, payload):
        self.payload = payload


class _RecordSink(SeparateObject):
    def __init__(self):
        self.count = 0

    @command
    def accept(self, record):
        self.count += 1

    @query
    def total(self):
        return self.count


@pytest.mark.parametrize("argument", ["reference", "expanded"])
def test_ablation_expanded_arguments(benchmark, argument, bench_options):
    """Cost of copying expanded arguments vs. passing references."""
    n_calls = 200
    payload = list(range(64))

    def workload():
        with QsRuntime(QsConfig.all()) as rt:
            sink = rt.new_handler("sink").create(_RecordSink)
            with rt.separate(sink) as proxy:
                for _ in range(n_calls):
                    proxy.accept(_Record(payload) if argument == "expanded" else payload)
                total = proxy.total()
            return rt.stats()["expanded_copies"], total

    copies, total = benchmark.pedantic(workload, **bench_options)
    assert total == n_calls
    benchmark.extra_info["expanded_copies"] = copies
    assert copies == (n_calls if argument == "expanded" else 0)
