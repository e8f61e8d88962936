"""End-to-end tests of the threaded runtime: handlers, separate blocks, calls,
queries, multi-reservations, nesting, error handling — across every
optimization level (the ``runtime`` fixture is parameterised)."""


import pytest

from repro.core.api import command, query
from repro.core.baseline import LockBasedRuntime
from repro.core.region import SeparateObject
from repro.core.runtime import QsRuntime, lock_based_runtime, qs_runtime
from repro.errors import (
    NotReservedError,
    QueryFailedError,
    ReservationError,
    RuntimeShutdownError,
    ScoopError,
)


class Counter(SeparateObject):
    def __init__(self, value=0):
        self.value = value

    @command
    def increment(self, by=1):
        self.value += by

    @command
    def explode(self):
        raise RuntimeError("async failure")

    @query
    def read(self):
        return self.value

    @query
    def fail(self):
        raise ValueError("query failure")

    def unmarked(self):
        # unmarked methods default to query semantics
        return self.value * 2


class TestBasicOperation:
    def test_commands_and_queries(self, runtime):
        ref = runtime.new_handler("counter").create(Counter)
        with runtime.separate(ref) as c:
            c.increment()
            c.increment(4)
            assert c.read() == 5

    def test_commands_apply_in_program_order(self, runtime):
        ref = runtime.new_handler("counter").create(Counter, 1)
        with runtime.separate(ref) as c:
            c.increment(10)      # 11
            c.increment(100)     # 111
            assert c.read() == 111

    def test_unmarked_method_defaults_to_query(self, runtime):
        ref = runtime.new_handler("counter").create(Counter, 21)
        with runtime.separate(ref) as c:
            assert c.unmarked() == 42

    def test_explicit_send_and_ask(self, runtime):
        ref = runtime.new_handler("counter").create(Counter)
        with runtime.separate(ref) as c:
            c.send("increment", 7)
            assert c.ask("read") == 7

    def test_apply_and_compute_function_forms(self, runtime):
        ref = runtime.new_handler("counter").create(Counter)
        with runtime.separate(ref) as c:
            c.apply(lambda obj, amount: obj.increment(amount), 5)
            assert c.compute(lambda obj: obj.value) == 5

    def test_results_visible_across_blocks(self, runtime):
        ref = runtime.new_handler("counter").create(Counter)
        with runtime.separate(ref) as c:
            c.increment(3)
        with runtime.separate(ref) as c:
            assert c.read() == 3

    def test_query_exception_propagates_to_client(self, runtime):
        ref = runtime.new_handler("counter").create(Counter)
        with runtime.separate(ref) as c:
            with pytest.raises((QueryFailedError, ValueError)):
                c.fail()

    def test_async_exception_surfaces_at_shutdown(self):
        rt = QsRuntime("all")
        ref = rt.new_handler("counter").create(Counter)
        with rt.separate(ref) as c:
            c.explode()
        with pytest.raises(ScoopError):
            rt.shutdown()

    def test_proxy_attribute_assignment_rejected(self, runtime):
        ref = runtime.new_handler("counter").create(Counter)
        with runtime.separate(ref) as c:
            with pytest.raises(AttributeError):
                c.value = 5


class TestReservations:
    def test_call_without_reservation_rejected(self, runtime):
        ref = runtime.new_handler("counter").create(Counter)
        client = runtime.current_client()
        with pytest.raises(NotReservedError):
            client.call(ref, "increment")

    def test_separate_requires_refs(self, runtime):
        with pytest.raises(ReservationError):
            with runtime.separate():
                pass

    def test_separate_rejects_non_refs(self, runtime):
        with pytest.raises(ReservationError):
            with runtime.separate(Counter()):
                pass

    def test_nested_blocks_on_same_handler(self, runtime):
        ref = runtime.new_handler("counter").create(Counter)
        if not runtime.config.use_qoq:
            pytest.skip("nested reservation of the same handler self-deadlocks under the lock-based protocol")
        with runtime.separate(ref) as outer:
            outer.increment(1)
            with runtime.separate(ref) as inner:
                inner.increment(10)
            outer.increment(100)
            # all increments from this client are eventually applied
        with runtime.separate(ref) as c:
            assert c.read() == 111

    def test_multi_reservation_returns_tuple(self, runtime):
        a = runtime.new_handler("a").create(Counter, 1)
        b = runtime.new_handler("b").create(Counter, 2)
        with runtime.separate(a, b) as (pa, pb):
            assert pa.read() == 1
            assert pb.read() == 2
            assert runtime.stats().multi_reservations >= 1

    def test_duplicate_handler_in_multi_reservation_collapses(self, runtime):
        a = runtime.new_handler("a").create(Counter, 1)
        b = a.handler.create(Counter, 2)  # second object on the same handler
        with runtime.separate(a, b) as (pa, pb):
            assert pa.read() == 1
            assert pb.read() == 2

    def test_multi_reservation_atomicity(self, qs_runtime):
        """Fig. 5: observers reserving both handlers always see equal colours."""
        x = qs_runtime.new_handler("x").create(Counter, 0)
        y = qs_runtime.new_handler("y").create(Counter, 0)
        inconsistencies = []

        def painter(colour):
            for _ in range(50):
                with qs_runtime.separate(x, y) as (px, py):
                    px.send("increment", colour - px.read())   # set to colour
                    py.send("increment", colour - py.read())

        def observer():
            for _ in range(50):
                with qs_runtime.separate(x, y) as (px, py):
                    if px.read() != py.read():
                        inconsistencies.append((px.read(), py.read()))

        threads = [
            qs_runtime.client(painter, 1, name="red"),
            qs_runtime.client(painter, 2, name="blue"),
            qs_runtime.client(observer, name="observer"),
        ]
        for t in threads:
            t.join()
        assert inconsistencies == []


class TestRuntimeLifecycle:
    def test_context_manager_shuts_down(self):
        with QsRuntime("all") as rt:
            ref = rt.new_handler("c").create(Counter)
            with rt.separate(ref) as c:
                c.increment()
        assert all(not h.alive for h in rt.handlers)

    def test_operations_after_shutdown_rejected(self):
        rt = QsRuntime("all")
        rt.shutdown()
        with pytest.raises(RuntimeShutdownError):
            rt.new_handler("late")

    def test_handler_names_unique(self, qs_runtime):
        qs_runtime.new_handler("dup")
        with pytest.raises(ScoopError):
            qs_runtime.new_handler("dup")

    def test_handler_get_or_create(self, qs_runtime):
        h1 = qs_runtime.handler("worker")
        h2 = qs_runtime.handler("worker")
        assert h1 is h2

    def test_new_handlers_bulk(self, qs_runtime):
        handlers = qs_runtime.new_handlers(3, prefix="w")
        assert [h.name for h in handlers] == ["w-0", "w-1", "w-2"]

    def test_spawned_client_error_collected(self):
        rt = QsRuntime("all")

        def bad():
            raise RuntimeError("client blew up")

        rt.client(bad).join()
        with pytest.raises(ScoopError):
            rt.shutdown()

    def test_stats_reset(self, qs_runtime):
        ref = qs_runtime.new_handler("c").create(Counter)
        with qs_runtime.separate(ref) as c:
            c.increment()
        assert qs_runtime.stats().async_calls >= 1
        qs_runtime.reset_stats()
        assert qs_runtime.stats().async_calls == 0

    def test_constructors(self):
        assert qs_runtime("dynamic").config.dynamic_sync_coalescing
        assert not lock_based_runtime().config.use_qoq
        assert isinstance(LockBasedRuntime(), QsRuntime)


class TestContention:
    def test_many_clients_one_handler_total_is_exact(self, runtime):
        """The mutex pattern: no lost updates under any optimization level."""
        ref = runtime.new_handler("shared").create(Counter)
        clients, per_client = 4, 25

        def hammer():
            for _ in range(per_client):
                with runtime.separate(ref) as c:
                    c.increment()

        threads = [runtime.client(hammer, name=f"hammer-{i}") for i in range(clients)]
        for t in threads:
            t.join()
        with runtime.separate(ref) as c:
            assert c.read() == clients * per_client

    def test_block_isolation_read_modify_write(self, runtime):
        """Pre/postcondition reasoning: read-modify-write inside one block is atomic."""
        ref = runtime.new_handler("shared").create(Counter)
        clients, per_client = 4, 10

        def double_then_add():
            for _ in range(per_client):
                with runtime.separate(ref) as c:
                    before = c.read()
                    c.increment(1)
                    after = c.read()
                    assert after == before + 1   # nobody interleaved

        threads = [runtime.client(double_then_add, name=f"rmw-{i}") for i in range(clients)]
        for t in threads:
            t.join()
        with runtime.separate(ref) as c:
            assert c.read() == clients * per_client

    def test_lock_based_mode_counts_lock_traffic(self, baseline_runtime):
        ref = baseline_runtime.new_handler("shared").create(Counter)
        with baseline_runtime.separate(ref) as c:
            c.increment()
        stats = baseline_runtime.stats()
        assert stats.lock_acquisitions >= 1
        assert stats.qoq_enqueues >= 1
