"""Client-lifecycle error paths, identical across all four backends.

The happy paths of ``client(fn)``/``join_clients``/``shutdown`` are
exercised everywhere; what must ALSO hold on every backend is the failure
contract: a raising client body is collected and surfaced (not swallowed,
not a hang), ``shutdown(check_failures=True)`` re-raises both client and
asynchronous handler failures, and shutting down twice is a no-op.  The
``any_backend_name`` fixture runs each scenario on threads, sim, process
and async.
"""

from __future__ import annotations

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.errors import ScoopError


class Service(SeparateObject):
    """Module-level (picklable) service so the process backend can host it."""

    def __init__(self) -> None:
        self.hits = 0

    @command
    def ping(self) -> None:
        self.hits += 1

    @command
    def misfire(self) -> None:
        raise RuntimeError("deliberate asynchronous failure")

    @query
    def count(self) -> int:
        return self.hits


class ClientBodyError(Exception):
    pass


def test_raising_client_surfaces_in_join(any_backend_name):
    rt = QsRuntime("all", backend=any_backend_name)
    try:
        ref = rt.new_handler("svc").create(Service)

        def good() -> None:
            with rt.separate(ref) as svc:
                svc.ping()

        def bad() -> None:
            with rt.separate(ref) as svc:
                svc.ping()
            raise ClientBodyError("client body exploded")

        rt.client(good, name="good")
        rt.client(bad, name="bad")
        with pytest.raises(ScoopError) as excinfo:
            rt.join_clients()
        assert isinstance(excinfo.value.__cause__, ClientBodyError)
        # the failure must not wedge the handler: it still answers queries
        with rt.separate(ref) as svc:
            assert svc.count() == 2
    finally:
        rt.shutdown(check_failures=False)


def test_raising_client_surfaces_at_shutdown(any_backend_name):
    rt = QsRuntime("all", backend=any_backend_name)
    ref = rt.new_handler("svc").create(Service)

    def bad() -> None:
        with rt.separate(ref) as svc:
            svc.ping()
        raise ClientBodyError("late failure")

    handle = rt.client(bad, name="bad")
    rt.backend.join_client(handle)  # drain without the error-checking join
    with pytest.raises(ScoopError, match="client thread"):
        rt.shutdown(check_failures=True)
    # the failed shutdown completed: a second one is an idempotent no-op
    rt.shutdown(check_failures=True)


def test_handler_async_failure_surfaces_at_shutdown(any_backend_name):
    rt = QsRuntime("all", backend=any_backend_name)
    ref = rt.new_handler("svc").create(Service)
    with rt.separate(ref) as svc:
        svc.misfire()
        svc.ping()
    # the raising command must not take the handler down with it
    with rt.separate(ref) as svc:
        assert svc.count() == 1
    with pytest.raises(ScoopError, match="asynchronous call"):
        rt.shutdown(check_failures=True)
    rt.shutdown(check_failures=True)  # idempotent after a failing shutdown


def test_double_shutdown_is_idempotent(any_backend_name):
    rt = QsRuntime("all", backend=any_backend_name)
    ref = rt.new_handler("svc").create(Service)
    with rt.separate(ref) as svc:
        svc.ping()
    rt.shutdown(check_failures=True)
    rt.shutdown(check_failures=True)
    rt.shutdown(check_failures=False)


def test_spawn_after_shutdown_is_rejected(any_backend_name):
    rt = QsRuntime("all", backend=any_backend_name)
    rt.shutdown()
    with pytest.raises(ScoopError):
        rt.client(lambda: None)


def test_raising_async_client_surfaces_at_shutdown():
    """The coroutine-client path keeps the same failure contract."""
    rt = QsRuntime("all", backend="async")
    ref = rt.new_handler("svc").create(Service)

    async def bad() -> None:
        async with rt.aclient().separate(ref) as svc:
            await svc.ping()
        raise ClientBodyError("coroutine client exploded")

    rt.aclient(bad, name="bad")
    with pytest.raises(ScoopError) as excinfo:
        rt.join_clients()
    assert isinstance(excinfo.value.__cause__, ClientBodyError)
    rt.shutdown(check_failures=False)
