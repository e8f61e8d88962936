"""One call shape on every backend, and payloads sized as before.

A command, a query, ``apply`` and ``compute`` all build one
``CallRequest(fn, target, args, kwargs, ...)``: ``fn`` is a feature name,
looked up on the target when the call runs, or a callable applied as
``fn(target, *args, **kwargs)``.  The same request crosses the process
boundary as it is.  The request API's own parameters are positional-only, so
a feature's keywords may have any name.  ``_payload_size`` is pinned to the
values it has always charged to ``bytes_copied``.
"""

import numpy as np
import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.backends.process import AsyncProcessPrivateQueue, ProcessPrivateQueue
from repro.core.client import _payload_size
from repro.queues.private_queue import PrivateQueue


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


def _count(obj, k):
    return len(obj.calls) + k


@pytest.fixture
def logged(monkeypatch):
    """Every request a client hands its private queues, in order, on any backend."""
    requests = []
    for queue in (PrivateQueue, ProcessPrivateQueue, AsyncProcessPrivateQueue):
        for name in ("enqueue_call", "enqueue_query"):
            original = getattr(queue, name)

            def spy(self, request, _original=original):
                requests.append(request)
                return _original(self, request)

            monkeypatch.setattr(queue, name, spy)
    return requests


class TestOneShape:
    def test_a_command_runs_with_exactly_its_arguments(self, any_backend_name, logged):
        with QsRuntime("all", backend=any_backend_name) as rt:
            ref = rt.new_handler("rec").create(Recorder)
            with rt.separate(ref) as rec:
                rec.record(1, 2, c=3.5, d=["four"])
                rec.record(b=6, a=5)
                seen = rec.seen()
                total = rec.total(10, scale=2)
        assert seen == [(1, 2, 3.5, ["four"]), (5, 6, 0, None)]
        assert total == (1 + 2 + 3.5 + 5 + 6 + 10) * 2
        commands = [request for request in logged if request.fn == "record"]
        assert [(request.args, request.kwargs) for request in commands] == [
            ((1, 2), {"c": 3.5, "d": ["four"]}), ((), {"b": 6, "a": 5})]
        assert [request.target for request in commands] == [ref._raw()] * 2

    def test_apply_runs_its_callable(self, any_backend_name, logged):
        with QsRuntime("all", backend=any_backend_name) as rt:
            ref = rt.new_handler("rec").create(Recorder)
            with rt.separate(ref) as rec:
                rec.apply(_tag, "x", times=3)
                seen = rec.seen()
        assert seen == [("fn", "x", 3, None)]
        (request,) = [request for request in logged if request.fn is _tag]
        assert (request.target, request.args, request.kwargs) == (ref._raw(), ("x",),
                                                                  {"times": 3})

    def test_a_packaged_query_and_compute_return_their_values(self, any_backend_name,
                                                               logged):
        with QsRuntime("qoq", backend=any_backend_name) as rt:
            ref = rt.new_handler("rec").create(Recorder)
            with rt.separate(ref) as rec:
                rec.record(1, 2, c=3)
                total = rec.total(10, scale=2)
                computed = rec.compute(_count, 5)
        assert total == (1 + 2 + 3 + 10) * 2
        assert computed == 6
        (packaged,) = [request for request in logged if request.fn == "total"]
        assert packaged.result is not None
        assert (packaged.args, packaged.kwargs) == ((10,), {"scale": 2})
        (function,) = [request for request in logged if request.fn is _count]
        assert function.result is not None and function.args == (5,)

    def test_bytes_copied_totals(self, any_backend_name):
        with QsRuntime("all", backend=any_backend_name) as rt:
            ref = rt.new_handler("rec").create(Recorder)
            with rt.separate(ref) as rec:
                rec.record(1, 2, c=3.5, d=["four"])  # four words
                rec.record("hello", b"abc")          # 5 + 3 bytes
                rec.apply(_tag, "x", times=3)        # 1 byte + a word
                rec.seen()                           # a query copies nothing
            stats = rt.stats()
        assert stats["bytes_copied"] == 32 + 8 + 9


class Named(SeparateObject):
    """Features whose keywords are named like the request API's own parameters."""

    def __init__(self):
        self.log = []

    @command
    def tag(self, /, **named):
        self.log.append(sorted(named.items()))

    @command
    def record(self, ref, method=None):
        self.log.append((ref, method))

    @query
    def echo(self, /, **named):
        return sorted(named.items())

    @query
    def seen(self):
        return list(self.log)


def _tag_named(obj, /, **named):
    obj.log.append(sorted(named.items()))


def _echo_named(obj, /, **named):
    return sorted(named.items())


#: every name the request API uses for a parameter of its own
API_NAMES = {"self": 1, "ref": 2, "fn": 3, "method": 4, "key": 5}
ECHOED = sorted(API_NAMES.items())


class TestFeatureKeywordsNamedLikeTheApi:
    def test_thread_clients(self, any_backend_name):
        with QsRuntime("all", backend=any_backend_name) as rt:
            ref = rt.new_handler("named").create(Named)
            group = rt.sharded("named-group", shards=2).create(Named)
            with rt.separate(ref) as obj:
                obj.record("r", method="m")
                obj.tag(**API_NAMES)
                obj.send("tag", **API_NAMES)
                obj.apply(_tag_named, **API_NAMES)
                answers = [obj.echo(**API_NAMES), obj.ask("echo", **API_NAMES),
                           obj.compute(_echo_named, **API_NAMES)]
                log = obj.seen()
            with group.separate() as g:
                g.call("k", "tag", **API_NAMES)
                g.broadcast("tag", **API_NAMES)
                answers.append(g.query("k", "echo", **API_NAMES))
                gathered = g.gather("echo", **API_NAMES)
                merged = g.gather("echo", merge=len, **API_NAMES)
                logs = g.gather("seen")
        assert answers == [ECHOED] * 4
        assert log == [("r", "m")] + [ECHOED] * 3
        assert gathered == [ECHOED] * 2 and merged == 2
        assert sorted(map(len, logs)) == [1, 2]

    @pytest.mark.parametrize("backend", ["async", "process+async:2:2"])
    def test_coroutine_clients(self, backend):
        observed = {}
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("named").create(Named)
            group = rt.sharded("named-group", shards=2).create(Named)

            async def client() -> None:
                async with rt.aclient().separate(ref) as obj:
                    await obj.record("r", method="m")
                    await obj.tag(**API_NAMES)
                    await obj.send("tag", **API_NAMES)
                    await obj.apply(_tag_named, **API_NAMES)
                    answers = [await obj.echo(**API_NAMES), await obj.ask("echo", **API_NAMES),
                               await obj.compute(_echo_named, **API_NAMES)]
                    observed["log"] = await obj.seen()
                async with group.separate_async() as g:
                    await g.call("k", "tag", **API_NAMES)
                    await g.broadcast("tag", **API_NAMES)
                    answers.append(await g.query("k", "echo", **API_NAMES))
                    observed["gathered"] = await g.gather("echo", **API_NAMES)
                    observed["merged"] = await g.gather("echo", merge=len, **API_NAMES)
                    observed["logs"] = await g.gather("seen")
                observed["answers"] = answers

            rt.aclient(client)
            rt.join_clients()
        assert observed["answers"] == [ECHOED] * 4
        assert observed["log"] == [("r", "m")] + [ECHOED] * 3
        assert observed["gathered"] == [ECHOED] * 2 and observed["merged"] == 2
        assert sorted(map(len, observed["logs"])) == [1, 2]


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
