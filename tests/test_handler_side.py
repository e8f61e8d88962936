"""The handler side's shared decisions, checked on every backend that makes them.

* Reserving a handler that was shut down fails loudly, at reservation,
  before any queue is enqueued — including for the live handlers of a
  multi-handler block.
* Every logged request and every reservation wakes its handler through
  ``notify_handler``, the one wake-up path (the asyncio backend relies on it).
"""

from __future__ import annotations

import time

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.backends import ThreadedBackend
from repro.errors import HandlerShutdownError


class Counter(SeparateObject):
    def __init__(self) -> None:
        self.value = 0

    @command
    def increment(self) -> None:
        self.value += 1

    @query
    def read(self) -> int:
        return self.value


@pytest.mark.parametrize("backend", ["threads", "sim", "async", "process", "process+async"])
def test_reserving_a_shut_down_handler_fails_at_entry(backend):
    with QsRuntime("all", backend=backend) as rt:
        dead = rt.new_handler("dead").create(Counter)
        live = rt.new_handler("live").create(Counter)
        rt.handler("dead").shutdown()
        entered = []
        for refs in ((dead,), (dead, live)):
            start = time.monotonic()
            with pytest.raises(HandlerShutdownError, match="'dead'"):
                with rt.separate(*refs) as proxies:
                    entered.append(refs)
                    for proxy in proxies if len(refs) > 1 else (proxies,):
                        proxy.increment()
                    if len(refs) > 1:
                        proxies[1].read()
            assert time.monotonic() - start < 1.0
        assert entered == []
        # the live handler of the pair holds no leftover reservation and
        # never ran the refused block's command
        with rt.separate(live) as counter:
            counter.increment()
            assert counter.read() == 1


class NotifyCountingBackend(ThreadedBackend):
    """The threaded backend, counting every wake-up a client sends."""

    def __init__(self) -> None:
        super().__init__()
        self.notifies = 0

    def notify_handler(self, handler) -> None:
        self.notifies += 1


@pytest.mark.parametrize("level", ["all", "qoq"])
def test_every_logged_request_wakes_its_handler(level):
    backend = NotifyCountingBackend()
    with QsRuntime(level, backend=backend) as rt:
        a = rt.new_handler("a").create(Counter)
        b = rt.new_handler("b").create(Counter)
        with rt.separate(a, b) as (x, y):   # a two-handler reservation
            x.increment()                   # commands
            y.increment()
            assert x.sync_()                # an explicit sync round trip
            assert x.read() == 1            # "all": the sync elided by coalescing
            x.increment()
            assert x.read() == 2            # "all": client-executed; "qoq": packaged
    # read once shutdown has drained both handlers: nothing synced b, so
    # inside the runtime its increment may not have run yet
    stats = rt.stats()
    if level == "all":
        assert stats["syncs_elided"] == 1
        assert stats["calls_executed"] == 3
    else:
        assert stats["syncs_elided"] == 0
        assert stats["calls_executed"] == 5  # the packaged queries ran on the handler
    # runtime-wide counters: a total over both handlers, not a per-handler
    # figure.  2 reservations + 3 commands + the sync + 2 ENDs, plus the
    # queries that reached the queue: one sync ("all"), two packaged ("qoq")
    expected = 9 if level == "all" else 10
    assert backend.notifies == stats["qoq_enqueues"] + stats["pq_enqueues"] == expected
