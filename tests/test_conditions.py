"""Tests for wait conditions (separate blocks guarded by supplier predicates)."""

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.core.conditions import WaitStrategy
from repro.errors import WaitConditionTimeout


class Buffer(SeparateObject):
    """An unbounded producer/consumer buffer (the prodcons supplier)."""

    def __init__(self):
        self.items = []

    @command
    def put(self, item):
        self.items.append(item)

    @query
    def take(self):
        return self.items.pop(0)

    @query
    def count(self):
        return len(self.items)


class Flag(SeparateObject):
    def __init__(self):
        self.value = 0

    @command
    def set(self, value):
        self.value = value

    @query
    def get(self):
        return self.value


class TestWaitStrategy:
    def test_backoff_grows_and_saturates(self):
        strategy = WaitStrategy(initial_backoff=0.001, max_backoff=0.004, multiplier=2.0)
        b = strategy.initial_backoff
        seen = []
        for _ in range(5):
            b = strategy.next_backoff(b)
            seen.append(b)
        assert seen == [0.002, 0.004, 0.004, 0.004, 0.004]


class TestWaitConditions:
    def test_condition_already_true_enters_immediately(self):
        with QsRuntime("all") as rt:
            buf = rt.new_handler("buf").create(Buffer)
            with rt.separate(buf) as b:
                b.put("x")
            block = rt.separate(buf, wait_until=lambda b: b.count() > 0)
            with block as b:
                assert b.take() == "x"
            assert block.wait_outcome is not None
            assert block.wait_outcome.satisfied_immediately

    def test_consumer_waits_for_producer(self):
        """The prodcons pattern of Section 4.1.2: the consumer's wait condition
        releases the buffer so the producer can fill it."""
        with QsRuntime("all") as rt:
            buf = rt.new_handler("buf").create(Buffer)
            consumed = []

            def consumer():
                for _ in range(5):
                    with rt.separate(buf, wait_until=lambda b: b.count() > 0) as b:
                        consumed.append(b.take())

            def producer():
                for i in range(5):
                    with rt.separate(buf) as b:
                        b.put(i)

            rt.client(consumer, name="consumer")
            rt.client(producer, name="producer")
            rt.join_clients()
            assert consumed == [0, 1, 2, 3, 4]

    def test_retries_are_counted(self):
        with QsRuntime("all") as rt:
            flag = rt.new_handler("flag").create(Flag)

            def setter():
                with rt.separate(flag) as f:
                    f.set(1)

            # force at least one failed attempt by checking before the setter runs
            block = rt.separate(flag, wait_until=lambda f: f.get() == 1)
            rt.client(setter, name="setter")
            with block as f:
                assert f.get() == 1
            assert rt.stats()["wait_condition_retries"] == block.wait_outcome.retries
            rt.join_clients()

    def test_timeout_raises_and_releases(self):
        with QsRuntime("all") as rt:
            flag = rt.new_handler("flag").create(Flag)
            with pytest.raises(WaitConditionTimeout):
                with rt.separate(flag, wait_until=lambda f: f.get() == 42, wait_timeout=0.05):
                    pytest.fail("the body must not run when the condition never holds")
            # the handler is free again: a plain block still works
            with rt.separate(flag) as f:
                f.set(42)
                assert f.get() == 42

    def test_max_retries_strategy_gives_up(self):
        from repro.core.separate import SeparateBlock

        with QsRuntime("all") as rt:
            flag = rt.new_handler("flag").create(Flag)
            client = rt.current_client()
            block = SeparateBlock(client, [flag], wait_until=lambda f: False,
                                  wait_strategy=WaitStrategy(max_retries=3, initial_backoff=0.0))
            with pytest.raises(WaitConditionTimeout) as err:
                block.__enter__()
            assert "3 attempts" in str(err.value)

    def test_predicate_exception_propagates_and_releases(self):
        with QsRuntime("all") as rt:
            flag = rt.new_handler("flag").create(Flag)
            with pytest.raises(RuntimeError):
                with rt.separate(flag, wait_until=lambda f: (_ for _ in ()).throw(RuntimeError("boom"))):
                    pass
            # reservation was rolled back: the handler accepts new blocks
            with rt.separate(flag) as f:
                f.set(7)
                assert f.get() == 7

    def test_multi_handler_wait_condition(self):
        """Fig. 5 style: wait until both reserved objects have the same colour."""
        with QsRuntime("all") as rt:
            x = rt.new_handler("x").create(Flag)
            y = rt.new_handler("y").create(Flag)

            def painter():
                with rt.separate(x, y) as (fx, fy):
                    fx.set(3)
                    fy.set(3)

            block = rt.separate(x, y, wait_until=lambda fx, fy: fx.get() == fy.get() == 3)
            rt.client(painter, name="painter")
            with block as (fx, fy):
                assert fx.get() == fy.get() == 3
            rt.join_clients()

    def test_wait_retry_events_traced(self):
        with QsRuntime("all", trace=True) as rt:
            flag = rt.new_handler("flag").create(Flag)

            def setter():
                with rt.separate(flag) as f:
                    f.set(1)

            block = rt.separate(flag, wait_until=lambda f: f.get() == 1)
            rt.client(setter, name="setter")
            with block:
                pass
            rt.join_clients()
            retries = rt.trace_events(kind="wait-retry", handler="flag")
            assert len(retries) == block.wait_outcome.retries
