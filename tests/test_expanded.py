"""Tests for expanded objects (value semantics across region boundaries)."""

import sys

import numpy as np

from repro import QsRuntime, SeparateObject, command, query
from repro.core.expanded import (
    Expanded,
    ExpandedView,
    copy_expanded,
    expanded_view,
    is_expanded,
    prepare_arguments,
    register_expanded,
    unregister_expanded,
)
from repro.util.counters import Counters


class Point(Expanded):
    def __init__(self, x, y):
        self.x = x
        self.y = y


class Legacy:
    """A plain class registered as expanded without subclassing."""

    def __init__(self, payload):
        self.payload = payload


class Sink(SeparateObject):
    def __init__(self):
        self.received = []

    @command
    def accept(self, value):
        self.received.append(value)

    @query
    def first(self):
        return self.received[0]

    @query
    def count(self):
        return len(self.received)


class TestClassification:
    def test_subclasses_and_views_are_expanded(self):
        assert is_expanded(Point(1, 2))
        assert is_expanded(expanded_view([1, 2, 3]))
        assert not is_expanded([1, 2, 3])
        assert not is_expanded("text")

    def test_registration_round_trip(self):
        assert not is_expanded(Legacy(1))
        register_expanded(Legacy)
        try:
            assert is_expanded(Legacy(1))
        finally:
            unregister_expanded(Legacy)
        assert not is_expanded(Legacy(1))

    def test_register_usable_as_decorator(self):
        @register_expanded
        class Decorated:
            pass

        try:
            assert is_expanded(Decorated())
        finally:
            unregister_expanded(Decorated)


class TestCopying:
    def test_copy_is_deep_and_counted(self):
        counters = Counters()
        original = Point(1, [2, 3])
        copied = copy_expanded(original, counters)
        assert copied is not original
        assert copied.y is not original.y
        snap = counters.snapshot()
        assert snap["expanded_copies"] == 1
        assert snap["bytes_copied"] > 0

    def test_expanded_view_unwraps_to_a_copy(self):
        data = [1, 2, 3]
        copied = copy_expanded(expanded_view(data))
        assert copied == data and copied is not data

    def test_custom_scoop_copy_hook_is_used(self):
        class Snapshot(Expanded):
            def __init__(self, values):
                self.values = values
                self.copies = 0

            def scoop_copy(self):
                clone = Snapshot(list(self.values))
                clone.copies = self.copies + 1
                return clone

        copied = copy_expanded(Snapshot([1]))
        assert copied.copies == 1

    def test_prepare_arguments_only_copies_expanded_values(self):
        counters = Counters()
        shared = [1, 2]
        point = Point(0, 0)
        args, kwargs = prepare_arguments((shared, point), {"tag": "x", "p": Point(9, 9)}, counters)
        assert args[0] is shared                     # reference semantics preserved
        assert args[1] is not point                  # expanded -> copied
        assert kwargs["tag"] == "x"
        assert kwargs["p"] is not None and kwargs["p"].x == 9
        assert counters.snapshot()["expanded_copies"] == 2

    def test_prepare_arguments_copies_values_found_only_in_kwargs(self):
        counters = Counters()
        register_expanded(Legacy)
        try:
            point, legacy, data = Point(1, 2), Legacy([1]), [4, 5]
            args, kwargs = prepare_arguments(
                (1, "a"), {"p": point, "l": legacy, "v": expanded_view(data), "n": 3}, counters)
        finally:
            unregister_expanded(Legacy)
        assert args == (1, "a")
        assert kwargs["p"] is not point and kwargs["p"].y == 2
        assert kwargs["l"] is not legacy and kwargs["l"].payload == [1]
        assert kwargs["v"] == data and kwargs["v"] is not data
        assert kwargs["n"] == 3
        assert counters.snapshot()["expanded_copies"] == 3

    def test_prepare_arguments_copies_values_in_the_middle_of_args(self):
        counters = Counters()
        register_expanded(Legacy)
        try:
            shared, point, legacy, data = [0], Point(7, 8), Legacy("x"), {"k": 1}
            args, kwargs = prepare_arguments(
                (shared, point, 2, legacy, expanded_view(data), "tail"), {"n": 1}, counters)
        finally:
            unregister_expanded(Legacy)
        assert type(args) is tuple and len(args) == 6
        assert args[0] is shared and args[2] == 2 and args[5] == "tail"
        assert args[1] is not point and (args[1].x, args[1].y) == (7, 8)
        assert args[3] is not legacy and args[3].payload == "x"
        assert args[4] == data and args[4] is not data
        assert kwargs == {"n": 1}
        snap = counters.snapshot()
        assert snap["expanded_copies"] == 3
        assert snap["bytes_copied"] == sum(sys.getsizeof(args[i]) for i in (1, 3, 4))

    def test_prepare_arguments_fast_path_returns_same_objects(self):
        args, kwargs = ((1, 2), {"a": 3})
        out_args, out_kwargs = prepare_arguments(args, kwargs, None)
        assert out_args is args and out_kwargs is kwargs


class TestRuntimeIntegration:
    def test_async_argument_is_snapshotted_at_logging_time(self):
        """Mutating the client's expanded object after logging the call must
        not change what the handler receives — that is the whole point of
        value semantics for expanded classes."""
        with QsRuntime("all") as rt:
            sink = rt.new_handler("sink").create(Sink)
            point = Point(1, 1)
            with rt.separate(sink) as s:
                s.accept(point)
                point.x = 999            # mutate after the call was logged
                assert s.count() == 1
                received = s.first()
            assert received.x == 1
            assert rt.stats()["expanded_copies"] == 1

    def test_plain_arguments_keep_reference_semantics(self):
        with QsRuntime("all") as rt:
            sink = rt.new_handler("sink").create(Sink)
            token = ("immutable", 1)
            with rt.separate(sink) as s:
                s.accept(token)
                assert s.first() is token
            assert rt.stats()["expanded_copies"] == 0

    def test_expanded_view_ships_numpy_by_value(self):
        with QsRuntime("all") as rt:
            sink = rt.new_handler("sink").create(Sink)
            data = np.arange(4)
            with rt.separate(sink) as s:
                s.accept(expanded_view(data))
                data[:] = -1
                received = s.first()
            np.testing.assert_array_equal(received, np.arange(4))
            assert isinstance(received, np.ndarray)
            assert not isinstance(received, ExpandedView)
