"""A separate block pays only for its rules, on every backend.

A feature is resolved once per hosted class, not once per proxy: the first
``p.name`` on any proxy of a class asks ``method_kind`` and stores the
generated feature on the class's derived proxy type.  Blocking proxies,
awaitable proxies and ``ShardedProxy.on``/``shard`` share that mechanism.
A single-handler block takes the lean path through ``Client.reserve_one``
and ``Client.release_one``.  What must not change is pinned here: the
errors, the wait condition's back-off, every counter of a fixed program and
every trace event it records.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.core import api, separate
from repro.core.async_api import AsyncReservedProxy
from repro.core.guarantees import check_trace
from repro.core.separate import ReservedProxy
from repro.errors import NotReservedError


class Tally(SeparateObject):
    def __init__(self):
        self.count = 0

    @command
    def add(self, amount):
        self.count += amount

    @query
    def total(self):
        return self.count


class Pushes(SeparateObject):
    """Shares a feature name with :class:`Asks`; here it is a command."""

    def __init__(self):
        self.touched = 0

    @command
    def touch(self):
        self.touched += 1

    @query
    def touches(self):
        return self.touched


class Asks(SeparateObject):
    """Shares a feature name with :class:`Pushes`; here it is a query."""

    @query
    def touch(self):
        return "asked"


class Shadowed(SeparateObject):
    """Hosts features named like the proxy's own API."""

    def __init__(self):
        self.log = []

    @command
    def send(self, item):
        self.log.append(("send", item))

    @command
    def bump(self, item):
        self.log.append(("bump", item))

    @query
    def ask(self):
        return "hosted ask"

    @query
    def ref(self):
        return "hosted ref"

    @query
    def handler(self):
        return "hosted handler"

    @query
    def seen(self):
        return list(self.log)


ASYNC_BACKENDS = ["async", "process+async:2:2"]


@pytest.fixture
def resolutions(monkeypatch):
    """Every feature resolution, as ``(class name, feature)``, from empty caches."""
    resolved = []

    def counting(cls, name, default=api.QUERY):
        resolved.append((cls.__name__, name))
        return api.method_kind(cls, name, default)

    monkeypatch.setattr(separate, "method_kind", counting)
    monkeypatch.setattr(ReservedProxy, "_types", {})
    monkeypatch.setattr(AsyncReservedProxy, "_types", {})
    return resolved


class TestOncePerClass:
    def test_over_a_hundred_blocks_and_the_sharded_routes(self, any_backend_name, resolutions):
        with QsRuntime("all", backend=any_backend_name) as rt:
            ref = rt.new_handler("tally").create(Tally)
            group = rt.sharded("tallies", shards=2).create(Tally)
            for block in range(100):
                with rt.separate(ref) as t:
                    t.add(1)
                    assert t.total() == block + 1
            assert resolutions == [("Tally", "add"), ("Tally", "total")]
            for key in range(100):
                with group.separate() as g:
                    g.on(key).add(1)
                    g.shard(key % 2).add(0)
                    assert type(g.on(key)) is type(t)
            with group.separate() as g:
                assert sum(g.gather("total")) == 100
        assert resolutions == [("Tally", "add"), ("Tally", "total")]

    @pytest.mark.parametrize("backend", ASYNC_BACKENDS)
    def test_the_awaitable_proxy_too(self, backend, resolutions):
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("tally").create(Tally)
            group = rt.sharded("tallies", shards=2).create(Tally)
            totals = []

            async def client() -> None:
                for _ in range(100):
                    async with rt.aclient().separate(ref) as t:
                        await t.add(1)
                        totals.append(await t.total())
                for key in range(100):
                    async with group.separate_async() as g:
                        await g.on(key).add(1)
                        await g.shard(key % 2).add(0)
                async with group.separate_async() as g:
                    totals.append(sum(await g.gather("total")))

            rt.aclient(client)
            rt.join_clients()
        assert totals == list(range(1, 101)) + [100]
        assert resolutions == [("Tally", "add"), ("Tally", "total")]

    def test_a_name_shared_by_a_command_and_a_query_resolves_per_class(
            self, any_backend_name, resolutions):
        with QsRuntime("all", backend=any_backend_name) as rt:
            pushes = rt.new_handler("pushes").create(Pushes)
            asks = rt.new_handler("asks").create(Asks)
            before = rt.stats()
            for _ in range(2):
                with rt.separate(pushes, asks) as (p, a):
                    assert p.touch() is None        # logged, not waited for
                    assert a.touch() == "asked"     # a query, answered
            with rt.separate(pushes) as p:
                assert p.touches() == 2
            after = rt.stats()
        assert (after["async_calls"] - before["async_calls"],
                after["queries"] - before["queries"]) == (2, 3)
        assert sorted(resolutions) == [
            ("Asks", "touch"), ("Pushes", "touch"), ("Pushes", "touches")]


class TestTodaysBehaviour:
    def test_features_named_like_the_api_are_reached_through_it(self, any_backend_name):
        with QsRuntime("all", backend=any_backend_name) as rt:
            ref = rt.new_handler("shadowed").create(Shadowed)
            with rt.separate(ref) as s:
                assert s.ref is ref and s.handler is ref.handler
                s.send("bump", 1)               # the API: log "bump"
                s.send("send", 2)               # the hosted send, by name
                assert s.ask("ask") == "hosted ask"
                assert (s.ask("ref"), s.ask("handler")) == ("hosted ref", "hosted handler")
                assert s.seen() == [("bump", 1), ("send", 2)]

    @pytest.mark.parametrize("backend", ASYNC_BACKENDS)
    def test_and_on_the_awaitable_proxy(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("shadowed").create(Shadowed)
            seen = {}

            async def client() -> None:
                async with rt.aclient().separate(ref) as s:
                    seen["ref"] = s.ref is ref and s.handler is ref.handler
                    await s.send("bump", 1)
                    await s.send("send", 2)
                    seen["ask"] = await s.ask("ask")
                    seen["log"] = await s.seen()

            rt.aclient(client)
            rt.join_clients()
        assert seen == {"ref": True, "ask": "hosted ask", "log": [("bump", 1), ("send", 2)]}

    def test_a_kept_proxy_or_feature_refuses_after_its_block(self, any_backend_name):
        with QsRuntime("all", backend=any_backend_name) as rt:
            ref = rt.new_handler("tally").create(Tally)
            with rt.separate(ref) as t:
                kept, add, total = t, t.add, t.total
                add(1)
            for late in (lambda: add(1), total, lambda: kept.add(1), lambda: kept.total()):
                with pytest.raises(NotReservedError):
                    late()
            with rt.separate(ref):
                add(2)
                kept.add(3)
                assert total() == kept.total() == 6

    @pytest.mark.parametrize("backend", ASYNC_BACKENDS)
    def test_a_kept_awaitable_feature_refuses_after_its_block(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("tally").create(Tally)
            outcome = {}

            async def client() -> None:
                async with rt.aclient().separate(ref) as t:
                    add, total = t.add, t.total
                    await add(1)
                for late in (add(1), total()):
                    with pytest.raises(NotReservedError):
                        await late
                async with rt.aclient().separate(ref):
                    await add(2)
                    outcome["total"] = await total()

            rt.aclient(client)
            rt.join_clients()
        assert outcome == {"total": 3}

    def test_a_wait_condition_backs_off_by_the_default_strategy(self, any_backend_name,
                                                                monkeypatch):
        with QsRuntime("all", backend=any_backend_name) as rt:
            ref = rt.new_handler("tally").create(Tally)
            slept = []
            monkeypatch.setattr(rt.backend, "sleep", slept.append)
            asked = []

            def ready(t):
                asked.append(t.total())
                return len(asked) > 4

            block = rt.separate(ref, wait_until=ready)
            with block as t:
                t.add(1)
        assert block.wait_outcome.retries == 4 and asked == [0] * 5
        assert slept == [0.0005, 0.001, 0.002, 0.004]


def _fixed_program(rt):
    """Query-only blocks, a command block, a two-handler block, sharded routes."""
    a = rt.new_handler("a").create(Tally)
    b = rt.new_handler("b").create(Tally)
    group = rt.sharded("g", shards=2).create(Tally)
    answers = []
    for _ in range(3):
        with rt.separate(a) as t:
            answers.append(t.total())
    with rt.separate(a) as t:
        t.add(1)
        t.add(2)
        answers += [t.total(), t.total()]
    with rt.separate(a, b) as (x, y):
        x.add(1)
        y.add(5)
        answers += [y.total(), x.total()]
    for _ in range(2):
        with group.separate() as g:
            for key in range(4):
                g.on(key).add(1)
            g.shard(0).add(0)
            answers.append(sorted(g.gather("total")))
    return answers


#: what the fixed program counted before the lean path existed
IN_MEMORY_STATS = {
    "async_calls": 14, "bytes_copied": 112, "calls_executed": 14, "multi_reservations": 3,
    "pq_enqueues": 28, "qoq_batch_size_sum": 28, "qoq_enqueues": 7, "queries": 11,
    "reservations": 10, "shard_gathers": 2, "shard_routes": 8, "sync_roundtrips": 7,
    "syncs_elided": 4,
}
WIRE_STATS = {
    "async_calls": 14, "bytes_copied": 112, "calls_executed": 14, "multi_reservations": 3,
    "pq_enqueues": 34, "qoq_batch_size_sum": 35, "qoq_enqueues": 10, "queries": 11,
    "reservations": 10, "shard_gathers": 2, "shard_routes": 8, "sync_roundtrips": 10,
    "syncs_elided": 1, "wire_frames_coalesced": 24,
}
EXPECTED_STATS = {
    "threads": IN_MEMORY_STATS,
    "sim": {**IN_MEMORY_STATS, "context_switches": 10},
    "async": IN_MEMORY_STATS,
    "process": WIRE_STATS,
    "process+async:2:2": WIRE_STATS,
}


class TestAFixedProgram:
    def test_counts_what_it_counted_before(self, any_backend_name):
        with QsRuntime("all", backend=any_backend_name) as rt:
            answers = _fixed_program(rt)
        # read after shutdown has drained every handler; how many batches a
        # handler drained depends on when it woke, so that one is left out
        stats = {name: value for name, value in rt.stats().items()
                 if value and name != "qoq_batch_drains"}
        assert answers == [0, 0, 0, 3, 3, 5, 4, [0, 4], [0, 8]]
        assert stats == EXPECTED_STATS[any_backend_name]

    @pytest.mark.parametrize("backend", ["threads", "sim", "async"])
    def test_records_every_trace_event_it_recorded_before(self, backend):
        with QsRuntime("all", backend=backend, trace=True) as rt:
            _fixed_program(rt)
        events = rt.trace_events()
        assert check_trace(events).ok
        assert Counter(e.kind for e in events) == {
            "reserve": 10, "log-call": 14, "log-query": 11, "sync": 7, "sync-elided": 4,
            "exec": 14, "exec-client": 11, "end-block": 7, "release": 10}
        first = [(e.kind, e.feature) for e in events if e.handler == "a"][:5]
        assert first == [("reserve", None), ("log-query", "total"), ("sync-elided", None),
                         ("exec-client", "total"), ("release", None)]


def _reread(tally):
    """A client-executed body long enough to be running when a switch lands."""
    return sum(tally.count for _ in range(200))


class TestUnderContention:
    def test_grants_and_counters_hold_with_more_thread_clients_than_cores(self):
        # a grant lost to a racing revoke would refuse a client-executed
        # query body (SeparateAccessError, re-raised by join_clients): a
        # revoke moved after the block's END, with a thread switch between
        # its test and its store, fails here every run.  A lost counter
        # update would break the totals
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QsRuntime("all", backend="threads") as rt:
                ref = rt.new_handler("tally").create(Tally)

                def client() -> None:
                    for _ in range(150):
                        with rt.separate(ref) as t:
                            t.add(1)
                            t.compute(_reread)
                        with rt.separate(ref) as t:
                            t.compute(_reread)

                handles = [rt.client(client) for _ in range(4)]
                rt.join_clients(timeout=60)
                assert not any(handle.is_alive() for handle in handles)
                with rt.separate(ref) as t:
                    assert t.total() == 600
        finally:
            sys.setswitchinterval(switch)
        stats = rt.stats()
        assert (stats["async_calls"], stats["calls_executed"], stats["queries"],
                stats["reservations"]) == (600, 600, 1201, 1201)
