"""Async-backend specifics: the awaitable client API and high fan-in.

Backend *parity* (same programs, same observations, same counters as
threads/sim/process with thread clients) lives in ``tests/test_backends.py``;
this file covers what is unique to the asyncio backend: the awaitable
surface (``aclient(coro_fn)``, ``aclient().separate(...)``, ``await
call/query/sync``), coroutine/thread client coexistence, counter parity
between the two client styles, query failure propagation through awaited
result boxes, fan-in scale, and the API's guard rails.
"""

from __future__ import annotations

import time

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.cli import main as cli_main
from repro.core.async_api import AsyncClient
from repro.errors import QueryFailedError, ScoopError

#: counters whose values do not depend on the client style (see
#: tests/test_backends.py for the backend-parity counterpart)
PARITY_COUNTERS = ("async_calls", "queries", "sync_roundtrips", "syncs_elided",
                   "reservations", "multi_reservations", "qoq_enqueues", "calls_executed")


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


def _bank_with_thread_clients(backend: str, clients: int, transfers: int) -> dict:
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
        counters = {name: rt.stats()[name] for name in PARITY_COUNTERS}
    return {"final": final, "counters": counters}


def _bank_with_async_clients(clients: int, transfers: int) -> dict:
    with QsRuntime("all", backend="async") as rt:
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
        counters = {name: rt.stats()[name] for name in PARITY_COUNTERS}
    return {"final": final, "counters": counters}


# ----------------------------------------------------------------------------
# the awaitable client API
# ----------------------------------------------------------------------------
class TestAwaitableApi:
    def test_commands_and_queries(self):
        with QsRuntime("all", backend="async") as rt:
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

    def test_sync_coalescing_applies_to_async_clients(self):
        with QsRuntime("all", backend="async") as rt:
            ref = rt.new_handler("acct").create(Account, 0)

            async def client() -> None:
                async with rt.aclient().separate(ref) as acc:
                    await acc.credit(1)
                    # first read syncs; the two repeats are elided
                    assert (await acc.read(), await acc.read(), await acc.read()) == (1, 1, 1)

            rt.aclient(client)
            rt.join_clients()
            stats = rt.stats()
            assert stats["sync_roundtrips"] == 1
            assert stats["syncs_elided"] == 2

    def test_explicit_sync_and_function_shipping(self):
        with QsRuntime("all", backend="async") as rt:
            ref = rt.new_handler("acct").create(Account, 5)
            out = []

            async def client() -> None:
                async with rt.aclient().separate(ref) as acc:
                    assert await acc.sync_() is True
                    assert await acc.sync_() is False  # coalesced
                    await acc.apply(lambda obj, n: obj.credit(n), 5)
                    out.append(await acc.compute(lambda obj: obj.balance * 10))

            rt.aclient(client)
            rt.join_clients()
            assert out == [100]

    def test_query_failure_propagates_through_await(self):
        caught = []
        with QsRuntime("all", backend="async") as rt:
            ref = rt.new_handler("acct").create(Account, 0)

            async def client() -> None:
                async with rt.aclient().separate(ref) as acc:
                    try:
                        await acc.fail()
                    except ValueError as exc:
                        caught.append(str(exc))
                    # the block (and the handler) survive the failed query
                    await acc.credit(3)
                    caught.append(await acc.read())

            rt.aclient(client)
            rt.join_clients()
        assert caught == ["deliberate query failure", 3]

    def test_packaged_query_failure_under_qoq_level(self):
        # client_executed_queries is off at the qoq level, so the query is
        # packaged and the error crosses back through the awaited result box
        caught = []
        with QsRuntime("qoq", backend="async") as rt:
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
        with QsRuntime("all", backend="async") as rt:
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

    def test_runtime_event_is_awaitable(self):
        with QsRuntime("all", backend="async") as rt:
            gate = rt.event()
            order = []

            async def waiter() -> None:
                await gate.wait_async()
                order.append("woken")

            async def setter() -> None:
                order.append("setting")
                gate.set()

            rt.aclient(waiter)
            rt.aclient(setter)
            rt.join_clients()
            assert order == ["setting", "woken"]


# ----------------------------------------------------------------------------
# client-style parity: coroutines and threads count the same work
# ----------------------------------------------------------------------------
def test_async_clients_match_thread_clients_counters():
    reference = _bank_with_thread_clients("threads", clients=3, transfers=10)
    async_threads = _bank_with_thread_clients("async", clients=3, transfers=10)
    async_coros = _bank_with_async_clients(clients=3, transfers=10)
    assert async_threads == reference, "thread clients must not depend on the backend"
    assert async_coros == reference, (
        "coroutine clients must produce identical results and counters")


# ----------------------------------------------------------------------------
# fan-in scale
# ----------------------------------------------------------------------------
def test_two_thousand_coroutine_clients():
    n = 2_000
    with QsRuntime("all", backend="async") as rt:
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
# multi-loop: async:nloops spreads handlers across event-loop threads
# ----------------------------------------------------------------------------
class Napper(SeparateObject):
    def __init__(self) -> None:
        self.naps = 0

    @command
    def nap(self, seconds: float) -> None:
        time.sleep(seconds)
        self.naps += 1

    @query
    def naps_taken(self) -> int:
        return self.naps


class TestMultiLoop:
    def test_bank_parity_across_loop_counts(self):
        reference = _bank_with_thread_clients("threads", clients=3, transfers=10)
        for spec in ("async:2", "async:4"):
            result = _bank_with_thread_clients(spec, clients=3, transfers=10)
            assert result == reference, (
                f"{spec} must produce identical results and counters")

    def test_shard_replicas_pin_to_distinct_loops(self):
        with QsRuntime("all", backend="async:3") as rt:
            group = rt.sharded("accts", shards=3).create(Account, 0)
            hosts = dict(group.topology.placement)
            assert sorted(hosts.values()) == ["loop:0", "loop:1", "loop:2"]

    def test_handlers_overlap_across_loops(self):
        """Four handlers blocking 0.2 s each must overlap under async:4 —
        on one loop they would serialise to ~0.8 s of wall clock."""
        with QsRuntime("all", backend="async:4") as rt:
            refs = [rt.new_handler(f"nap-{i}").create(Napper) for i in range(4)]
            start = time.monotonic()
            for ref in refs:
                with rt.separate(ref) as n:
                    n.nap(0.2)  # async call: enqueued, not awaited
            for ref in refs:
                with rt.separate(ref) as n:
                    assert n.naps_taken() == 1
            wall = time.monotonic() - start
        assert wall < 0.6, f"naps serialised: {wall:.3f}s for 4 x 0.2s"

    def test_direct_constructor_and_validation(self):
        from repro.backends import AsyncBackend

        backend = AsyncBackend(loops=2)
        assert backend.nloops == 2
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("acct").create(Account, 5)
            with rt.separate(ref) as acc:
                acc.credit(5)
                assert acc.read() == 10
        with pytest.raises(ValueError, match="at least one"):
            AsyncBackend(loops=0)

    def test_env_var_selects_loop_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "async:3")
        with QsRuntime("all") as rt:
            assert rt.backend.name == "async"
            assert rt.backend.nloops == 3


# ----------------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------------
class TestGuardRails:
    def test_async_clients_need_the_async_backend(self):
        with QsRuntime("all", backend="threads") as rt:
            with pytest.raises(ScoopError, match="backend='async'|asyncio backend"):
                AsyncClient(rt)
            async def never_runs():
                raise AssertionError("rejected before anything is scheduled")

            with pytest.raises(ScoopError, match="asyncio backend"):
                rt.aclient(never_runs)

    def test_async_clients_need_the_qoq_protocol(self):
        with QsRuntime("none", backend="async") as rt:
            with pytest.raises(ScoopError, match="queue-of-queues"):
                AsyncClient(rt)

    def test_async_backend_cannot_be_reattached(self):
        from repro.backends import AsyncBackend

        backend = AsyncBackend()
        with QsRuntime("all", backend=backend):
            pass
        with pytest.raises(ScoopError, match="cannot be attached twice"):
            QsRuntime("all", backend=backend)

    def test_awaitable_separate_rejects_non_refs(self):
        from repro.errors import ReservationError

        with QsRuntime("all", backend="async") as rt:
            with pytest.raises(ReservationError, match="SeparateRef"):
                rt.aclient().separate(object())
            with pytest.raises(ReservationError, match="at least one"):
                rt.aclient().separate()


# ----------------------------------------------------------------------------
# selection plumbing end to end
# ----------------------------------------------------------------------------
def test_cli_runs_examples_on_the_async_backend(capsys):
    assert cli_main(["--backend", "async", "run", "bank-transfers",
                     "--clients", "3", "--iterations", "5"]) == 0
    out = capsys.readouterr().out
    assert "backend=async" in out and "money conserved" in out

    assert cli_main(["--backend", "async", "run", "dining-philosophers",
                     "--clients", "3", "--iterations", "4"]) == 0
    out = capsys.readouterr().out
    assert "backend=async" in out and "no deadlock" in out


def test_env_var_selects_async_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "async")
    with QsRuntime("all") as rt:
        assert rt.backend.name == "async"
