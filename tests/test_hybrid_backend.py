"""Coroutine clients of the process backend: ``ProcessBackend(loops>=1)``.

Backend *parity* (same programs, same observations, same counters as the
other backends with thread clients) lives in ``tests/test_backends.py``;
this file covers what client event loops add to the process backend (the
``process+async`` configuration): the awaitable client surface running
against process-hosted handlers, counter parity between client styles *and*
against plain ``process`` (including the wire counters, which must not
depend on who drives the socket), placement reporting
(``worker:<pid>+loop:<i>``), query failure propagation through awaited
result boxes, mixed client styles, fan-in scale, and the configuration's
guard rails.
"""

from __future__ import annotations

import re

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.backends import ProcessBackend
from repro.errors import QueryFailedError, ScoopError

#: counters whose values do not depend on the client style or on which
#: side of the socket the event loop lives
PARITY_COUNTERS = ("async_calls", "queries", "sync_roundtrips", "syncs_elided",
                   "reservations", "multi_reservations", "qoq_enqueues", "calls_executed")

#: wire counters that must match the plain process backend on the same
#: workload: the coroutine transport shares FrameBuffers with the blocking
#: one, so coalescing behaviour is identical by construction
WIRE_COUNTERS = ("pq_enqueues", "wire_frames_coalesced")

HYBRID = "process+async:2:2"


class Account(SeparateObject):
    def __init__(self, balance: int) -> None:
        self.balance = balance

    @command
    def credit(self, amount: int) -> None:
        self.balance += amount

    @command
    def debit(self, amount: int) -> None:
        self.balance -= amount

    @query
    def read(self) -> int:
        return self.balance

    @query
    def fail(self) -> None:
        raise ValueError("deliberate query failure")


def _transfer_amount(seed: int, i: int) -> int:
    return 1 + (seed * 7 + i) % 20


def _bank_with_thread_clients(backend: str, clients: int, transfers: int,
                              counters: tuple = PARITY_COUNTERS) -> dict:
    with QsRuntime("all", backend=backend) as rt:
        alice = rt.new_handler("alice").create(Account, 1_000)
        bob = rt.new_handler("bob").create(Account, 1_000)

        def transferrer(seed: int) -> None:
            for i in range(transfers):
                amount = _transfer_amount(seed, i)
                with rt.separate(alice, bob) as (a, b):
                    a.debit(amount)
                    b.credit(amount)

        for i in range(clients):
            rt.client(transferrer, i, name=f"t-{i}")
        rt.join_clients()
        with rt.separate(alice, bob) as (a, b):
            final = (a.read(), b.read())
        stats = rt.stats()
        observed = {name: stats[name] for name in counters}
    return {"final": final, "counters": observed}


def _bank_with_coroutine_clients(backend: str, clients: int, transfers: int,
                                 counters: tuple = PARITY_COUNTERS) -> dict:
    with QsRuntime("all", backend=backend) as rt:
        alice = rt.new_handler("alice").create(Account, 1_000)
        bob = rt.new_handler("bob").create(Account, 1_000)

        async def transferrer(seed: int) -> None:
            for i in range(transfers):
                amount = _transfer_amount(seed, i)
                async with rt.aclient().separate(alice, bob) as (a, b):
                    await a.debit(amount)
                    await b.credit(amount)

        for i in range(clients):
            rt.aclient(transferrer, i, name=f"t-{i}")
        rt.join_clients()
        with rt.separate(alice, bob) as (a, b):
            final = (a.read(), b.read())
        stats = rt.stats()
        observed = {name: stats[name] for name in counters}
    return {"final": final, "counters": observed}


# ----------------------------------------------------------------------------
# the awaitable client API against process-hosted handlers
# ----------------------------------------------------------------------------
class TestAwaitableApi:
    def test_commands_and_queries(self):
        with QsRuntime("all", backend=HYBRID) as rt:
            ref = rt.new_handler("acct").create(Account, 100)
            seen = []

            async def client() -> None:
                async with rt.aclient().separate(ref) as acc:
                    await acc.credit(42)
                    seen.append(await acc.read())
                    seen.append(await acc.ask("read"))
                    await acc.send("debit", 10)
                    seen.append(await acc.read())

            rt.aclient(client)
            rt.join_clients()
            assert seen == [142, 142, 132]

    def test_sync_coalescing_applies_to_coroutine_clients(self):
        with QsRuntime("all", backend=HYBRID) as rt:
            ref = rt.new_handler("acct").create(Account, 0)

            async def client() -> None:
                async with rt.aclient().separate(ref) as acc:
                    await acc.credit(1)
                    assert (await acc.read(), await acc.read(), await acc.read()) == (1, 1, 1)

            rt.aclient(client)
            rt.join_clients()
            stats = rt.stats()
            assert stats["sync_roundtrips"] == 1
            assert stats["syncs_elided"] == 2

    def test_query_failure_propagates_through_await(self):
        caught = []
        with QsRuntime("all", backend=HYBRID) as rt:
            ref = rt.new_handler("acct").create(Account, 0)

            async def client() -> None:
                async with rt.aclient().separate(ref) as acc:
                    try:
                        await acc.fail()
                    except ValueError as exc:
                        caught.append(str(exc))
                    # the block (and the handler process) survive the failure
                    await acc.credit(3)
                    caught.append(await acc.read())

            rt.aclient(client)
            rt.join_clients()
        assert caught == ["deliberate query failure", 3]

    def test_packaged_query_failure_under_qoq_level(self):
        # client_executed_queries is off at the qoq level, so the query is
        # packaged, runs in the worker process, and the error crosses back
        # through the awaited result box
        caught = []
        with QsRuntime("qoq", backend=HYBRID) as rt:
            ref = rt.new_handler("acct").create(Account, 0)

            async def client() -> None:
                async with rt.aclient().separate(ref) as acc:
                    with pytest.raises(QueryFailedError):
                        await acc.fail()
                    caught.append(await acc.read())

            rt.aclient(client)
            rt.join_clients()
        assert caught == [0]

    def test_thread_and_coroutine_clients_coexist(self):
        with QsRuntime("all", backend=HYBRID) as rt:
            ref = rt.new_handler("acct").create(Account, 0)

            def thread_client() -> None:
                for _ in range(10):
                    with rt.separate(ref) as acc:
                        acc.credit(1)

            async def coro_client() -> None:
                for _ in range(10):
                    async with rt.aclient().separate(ref) as acc:
                        await acc.credit(1)

            for i in range(3):
                rt.client(thread_client, name=f"thread-{i}")
                rt.aclient(coro_client, name=f"coro-{i}")
            rt.join_clients()
            with rt.separate(ref) as acc:
                assert acc.read() == 60


# ----------------------------------------------------------------------------
# client-style and backend parity, down to the wire counters
# ----------------------------------------------------------------------------
class TestParity:
    def test_coroutine_clients_match_thread_clients_counters(self):
        reference = _bank_with_thread_clients("threads", clients=3, transfers=10)
        hybrid_threads = _bank_with_thread_clients(HYBRID, clients=3, transfers=10)
        hybrid_coros = _bank_with_coroutine_clients(HYBRID, clients=3, transfers=10)
        assert hybrid_threads == reference, (
            "thread clients must not depend on the backend")
        assert hybrid_coros == reference, (
            "coroutine clients must produce identical results and counters")

    def test_wire_counters_match_the_plain_process_backend(self):
        # the coroutine transport shares its buffering core (and the
        # coalescing threshold) with the blocking one, so the *wire*
        # counters must be identical too — not just the protocol counters
        counters = PARITY_COUNTERS + WIRE_COUNTERS
        process = _bank_with_thread_clients("process:2", clients=3, transfers=10,
                                            counters=counters)
        hybrid = _bank_with_coroutine_clients(HYBRID, clients=3, transfers=10,
                                              counters=counters)
        assert hybrid == process, (
            "who drives the socket (coroutine reader vs blocking client "
            "thread) must not change what crosses the wire")

    def test_wire_counters_identical_across_codecs(self):
        counters = PARITY_COUNTERS + WIRE_COUNTERS
        reference = _bank_with_coroutine_clients("process+async:2:2:pickle",
                                                 clients=2, transfers=8,
                                                 counters=counters)
        for codec in ("json", "bin"):
            result = _bank_with_coroutine_clients(f"process+async:2:2:{codec}",
                                                  clients=2, transfers=8,
                                                  counters=counters)
            assert result == reference, f"codec {codec!r} changed the accounting"


# ----------------------------------------------------------------------------
# placement: worker pid + pinned event loop
# ----------------------------------------------------------------------------
class TestPlacement:
    def test_shard_replicas_report_worker_and_loop(self):
        with QsRuntime("all", backend="process+async:2:2") as rt:
            group = rt.sharded("accts", shards=4).create(Account, 0)
            hosts = dict(group.topology.placement)
            assert len(hosts) == 4
            for host in hosts.values():
                assert re.fullmatch(r"worker:\d+\+loop:\d+", host), host
            # replicas round-robin over both loops and both workers
            loops = sorted(host.rsplit("+", 1)[1] for host in hosts.values())
            assert loops == ["loop:0", "loop:0", "loop:1", "loop:1"]
            workers = {host.split("+", 1)[0] for host in hosts.values()}
            assert len(workers) == 2

    def test_plain_handlers_report_an_unpinned_loop(self):
        with QsRuntime("all", backend=HYBRID) as rt:
            rt.new_handler("acct").create(Account, 0)
            placement = rt.backend.describe_placement(["acct"])
            assert re.fullmatch(r"worker:\d+\+loop:\*", placement["acct"])


# ----------------------------------------------------------------------------
# fan-in scale: many coroutine clients over a small worker pool
# ----------------------------------------------------------------------------
def test_five_hundred_coroutine_clients():
    n = 500
    with QsRuntime("all", backend="process+async:2:2") as rt:
        refs = [rt.new_handler(f"svc-{i}").create(Account, 0) for i in range(4)]

        async def client(i: int) -> None:
            ref = refs[i % len(refs)]
            async with rt.aclient().separate(ref) as acc:
                await acc.credit(1)
                assert await acc.read() >= 1

        for i in range(n):
            rt.aclient(client, i, name=f"c-{i}")
        rt.join_clients()
        totals = []
        for ref in refs:
            with rt.separate(ref) as acc:
                totals.append(acc.read())
        assert sum(totals) == n


# ----------------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------------
class TestGuardRails:
    def test_direct_constructor_and_validation(self):
        backend = ProcessBackend(processes=2, loops=2)
        assert backend.nloops == 2
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("acct").create(Account, 5)
            with rt.separate(ref) as acc:
                acc.credit(5)
                assert acc.read() == 10

    def test_spawning_after_shutdown_is_rejected(self):
        rt = QsRuntime("all", backend=HYBRID)
        rt.shutdown()
        with pytest.raises(ScoopError, match="shut down"):
            rt.backend.spawn_task(lambda: None, "late")

    def test_backends_cannot_be_attached_twice(self):
        backend = ProcessBackend(processes=1, loops=1)
        with QsRuntime("all", backend=backend):
            pass
        with pytest.raises(ScoopError, match="twice"):
            QsRuntime("all", backend=backend)

    def test_the_coroutine_driver_has_no_blocking_invoke(self):
        # reaching a blocking invoke() from a loop thread would deadlock the
        # event loop; the async driver does not inherit one to reach
        from repro.backends.process import AsyncProcessPrivateQueue, ProcessPrivateQueue

        assert not hasattr(AsyncProcessPrivateQueue, "invoke")
        assert hasattr(AsyncProcessPrivateQueue, "invoke_async")
        assert not issubclass(AsyncProcessPrivateQueue, ProcessPrivateQueue)
        assert not issubclass(ProcessPrivateQueue, AsyncProcessPrivateQueue)

    def test_env_var_selects_the_hybrid_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process+async:2:2")
        with QsRuntime("all") as rt:
            assert rt.backend.name == "process+async"
            assert rt.backend.nloops == 2
