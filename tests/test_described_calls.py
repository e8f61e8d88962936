"""Named-method requests are described calls, and their payloads are sized as before.

A command or query on a named method travels as ``CallRequest(fn=None)``
plus ``feature``, ``call_args`` and ``call_kwargs``; the handler looks the
method up when it runs the call.  ``apply`` / ``compute`` keep their
callable.  ``_payload_size`` is pinned to the values it has always charged
to ``bytes_copied``.
"""

import numpy as np
import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.config import QsConfig
from repro.core.client import _payload_size
from repro.queues.private_queue import PrivateQueue

IN_MEMORY = ("threads", "sim", "async")


class Recorder(SeparateObject):
    def __init__(self):
        self.calls = []

    @command
    def record(self, a, b, *, c=0, d=None):
        self.calls.append((a, b, c, d))

    @query
    def seen(self):
        return list(self.calls)

    @query
    def total(self, extra, scale=1):
        return (sum(a + b + c for a, b, c, _ in self.calls) + extra) * scale


def _tag(obj, value, *, times=1):
    obj.calls.append(("fn", value, times, None))


@pytest.fixture
def logged(monkeypatch):
    """Every request the in-memory private queues take, in order."""
    requests = []
    for name in ("enqueue_call", "enqueue_query"):
        original = getattr(PrivateQueue, name)

        def spy(self, request, _original=original):
            requests.append(request)
            return _original(self, request)

        monkeypatch.setattr(PrivateQueue, name, spy)
    return requests


@pytest.mark.parametrize("backend", IN_MEMORY)
class TestDescribedCommands:
    def test_a_command_runs_with_exactly_its_arguments(self, backend, logged):
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("rec").create(Recorder)
            with rt.separate(ref) as rec:
                rec.record(1, 2, c=3.5, d=["four"])
                rec.record(b=6, a=5)
                seen = rec.seen()
                total = rec.total(10, scale=2)
        assert seen == [(1, 2, 3.5, ["four"]), (5, 6, 0, None)]
        assert total == (1 + 2 + 3.5 + 5 + 6 + 10) * 2
        commands = [request for request in logged if request.feature == "record"]
        assert [request.fn for request in commands] == [None, None]  # no closure
        assert [(request.call_args, request.call_kwargs) for request in commands] == [
            ((1, 2), {"c": 3.5, "d": ["four"]}), ((), {"b": 6, "a": 5})]
        assert commands[0].args == (ref._raw(),)

    def test_apply_still_runs_its_callable(self, backend, logged):
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("rec").create(Recorder)
            with rt.separate(ref) as rec:
                rec.apply(_tag, "x", times=3)
                seen = rec.seen()
        assert seen == [("fn", "x", 3, None)]
        (request,) = [request for request in logged if request.feature == "_tag"]
        assert request.fn is _tag and request.kwargs == {"times": 3}

    def test_a_packaged_query_returns_its_value(self, backend, logged):
        config = QsConfig.all().with_(client_executed_queries=False)
        with QsRuntime(config, backend=backend) as rt:
            ref = rt.new_handler("rec").create(Recorder)
            with rt.separate(ref) as rec:
                rec.record(1, 2, c=3)
                total = rec.total(10, scale=2)
                computed = rec.compute(lambda obj, k: len(obj.calls) + k, 5)
        assert total == (1 + 2 + 3 + 10) * 2
        assert computed == 6
        (packaged,) = [request for request in logged if request.feature == "total"]
        assert packaged.fn is None and packaged.result is not None
        assert (packaged.call_args, packaged.call_kwargs) == ((10,), {"scale": 2})


class _Opaque:
    pass


#: (args, kwargs, bytes charged) — the values ``bytes_copied`` has always had
PAYLOADS = [
    ((1,), {}, 8),
    ((True,), {}, 8),
    ((1.5,), {}, 8),
    ((None,), {}, 8),
    ((1j,), {}, 8),
    (("hello",), {}, 5),
    ((b"abc",), {}, 3),
    ((bytearray(5),), {}, 5),
    (([1, 2, 3],), {}, 24),
    (((1, 2),), {}, 16),
    (({"a": 1, "b": 2},), {}, 32),
    # ndarray defines ``nbytes`` on its own class, so it is charged a word;
    # numpy scalars and ndarray subclasses are charged their ``nbytes``
    ((np.arange(4),), {}, 8),
    ((np.int16(3),), {}, 2),
    ((np.zeros((2, 2)).view(np.matrix),), {}, 32),
    ((_Opaque(),), {}, 8),
    ((), {}, 0),
    ((1, "ab"), {"k": [1, 2], "z": None, "b": b"xyz"}, 8 + 2 + 16 + 8 + 3),
]


@pytest.mark.parametrize("args, kwargs, expected", PAYLOADS,
                         ids=[f"{i}-{type((a + tuple(k.values()) or (None,))[0]).__name__}"
                              for i, (a, k, _) in enumerate(PAYLOADS)])
def test_payload_size(args, kwargs, expected):
    assert _payload_size(args, kwargs) == expected
