"""The unified ``runtime.client(...)`` / ``runtime.aclient(...)`` factory pair.

The four historical spellings (``spawn_client``, ``spawn_async_client``,
``async_client``, ``separate_async``) are gone; these are the only client
factories.
"""

import warnings

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.core.client import Client


class Box(SeparateObject):
    def __init__(self):
        self.items = []

    @command
    def add(self, item):
        self.items.append(item)

    @query
    def read(self):
        return list(self.items)


def _collect_deprecations(recorded):
    return [w for w in recorded if issubclass(w.category, DeprecationWarning)]


class TestClientFactory:
    def test_client_spawns_a_thread_client_for_plain_functions(self):
        with QsRuntime() as rt:
            box = rt.new_handler("box").create(Box)

            def worker(n):
                with rt.separate(box) as b:
                    b.add(n)

            handles = [rt.client(worker, i, name=f"w-{i}") for i in range(3)]
            rt.join_clients()
            for handle in handles:
                assert hasattr(handle, "join")
            with rt.separate(box) as b:
                assert sorted(b.read()) == [0, 1, 2]

    def test_client_without_arguments_is_the_calling_threads_client(self):
        with QsRuntime() as rt:
            me = rt.client()
            assert isinstance(me, Client)
            assert me is rt.current_client()

    def test_client_dispatches_coroutine_functions_to_the_loop(self):
        with QsRuntime(backend="async") as rt:
            box = rt.new_handler("box").create(Box)

            async def worker(n):
                async with rt.aclient().separate(box) as b:
                    await b.add(n)

            for i in range(3):
                rt.client(worker, i, name=f"aw-{i}")
            rt.join_clients()
            with rt.separate(box) as b:
                assert sorted(b.read()) == [0, 1, 2]

    def test_aclient_spawns_coroutine_clients(self):
        with QsRuntime(backend="async") as rt:
            box = rt.new_handler("box").create(Box)

            async def worker():
                async with rt.aclient().separate(box) as b:
                    await b.add("from-coroutine")
                    assert await b.read() == ["from-coroutine"]

            rt.aclient(worker)
            rt.join_clients()

    def test_aclient_rejects_plain_functions(self):
        with QsRuntime(backend="async") as rt:
            with pytest.raises(TypeError, match="not a coroutine function"):
                rt.aclient(lambda: None)

    def test_new_spellings_emit_no_deprecation_warning(self):
        with QsRuntime() as rt:
            box = rt.new_handler("box").create(Box)
            with warnings.catch_warnings(record=True) as recorded:
                warnings.simplefilter("always")
                rt.client(lambda: None, name="noop")
                rt.client()
                with rt.separate(box) as b:
                    b.add(1)
            rt.join_clients()
            assert _collect_deprecations(recorded) == []


class TestAliasesAreGone:
    def test_the_runtime_has_no_legacy_client_spellings(self):
        # deleted, not deprecated: an alias can never again accumulate
        # call sites silently (pyproject turns repro's own
        # DeprecationWarnings into errors for the same reason)
        for name in ("spawn_client", "spawn_async_client", "async_client", "separate_async"):
            assert not hasattr(QsRuntime, name), name
