"""Worker fault tolerance on the process backend.

The contract under test (see ``docs/backends.md``): when a worker process
dies mid-run, the parent detects the broken framed connections, re-pins the
dead worker's handlers onto survivors (capped pools) or fresh processes
(uncapped pools), restores each handler from its last checkpoint (before the
first one: from the adopt-time snapshots of its objects), and replays the
frame journal above it in ticket order — so every client's request sequence
completes without a drop or a reorder, and ``shard_failovers`` counts the
re-pinned handlers.  The journal is a window: every checkpoint a reply
carries truncates it.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.backends import ProcessBackend
from repro.backends import process as process_backend
from repro.backends.process_worker import CHECKPOINT_MIN_FRAMES


class Ledger(SeparateObject):
    """Per-key append logs (module-level so workers can unpickle it)."""

    def __init__(self) -> None:
        self.logs = {}

    @command
    def record(self, key, value) -> None:
        self.logs.setdefault(key, []).append(value)

    @query
    def dump(self) -> dict:
        return {key: list(log) for key, log in self.logs.items()}

    def reshard_export(self, keys):
        return {key: self.logs.pop(key) for key in keys if key in self.logs}

    def reshard_import(self, state) -> None:
        for key, log in state.items():
            self.logs.setdefault(key, []).extend(log)


def _kill_worker_of(backend: ProcessBackend, handler_name: str) -> int:
    """SIGKILL the worker hosting ``handler_name``; returns its pid."""
    worker = backend._assignment[handler_name]
    pid = worker.proc.pid
    os.kill(pid, signal.SIGKILL)
    worker.proc.wait(timeout=10.0)
    return pid


KEYS = [f"acct-{i}" for i in range(8)]


class TestWorkerFailover:
    def test_killed_worker_mid_workload_completes_via_failover(self):
        """The acceptance scenario: concurrent clients keep recording while a
        worker is killed; every record survives and ``shard_failovers`` counts
        the re-pinned handler."""
        backend = ProcessBackend(processes=2)
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("ledgers", shards=2).create(Ledger)

            def client(i: int) -> None:
                for j in range(20):
                    key = KEYS[(i + j) % len(KEYS)]
                    with group.separate() as g:
                        g.on(key).record(key, (f"c{i}", j))

            for i in range(3):
                rt.client(client, i, name=f"rec-{i}")
            time.sleep(0.05)  # let the clients get going
            _kill_worker_of(backend, "ledgers/shard0")
            rt.join_clients()

            with group.separate() as g:
                dumps = g.gather("dump")
            per_client = {}
            for dump in dumps:
                for log in dump.values():
                    for client_id, j in log:
                        per_client.setdefault(client_id, []).append(j)
            # zero dropped, zero reordered: each client's 20 sequenced
            # records all arrive, and per key in issue order
            assert {c: sorted(js) for c, js in per_client.items()} == {
                f"c{i}": list(range(20)) for i in range(3)}
            for dump in dumps:
                for log in dump.values():
                    seen = {}
                    for client_id, j in log:
                        assert seen.get(client_id, -1) < j, (
                            f"client {client_id} reordered in {log}")
                        seen[client_id] = j
            assert rt.stats()["shard_failovers"] >= 1

    def test_mid_block_failure_replays_in_flight_frames(self):
        backend = ProcessBackend(processes=2)
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("ledgers", shards=2).create(Ledger)
            with group.separate() as g:
                g.on(KEYS[0]).record("a", 1)
                # consume a genuine reply, so the replayed one must be
                # recognised as stale and discarded
                assert g.on(KEYS[0]).dump() == {"a": [1]}
                _kill_worker_of(backend, "ledgers/shard0")
                g.on(KEYS[0]).record("a", 2)
                assert g.on(KEYS[0]).dump() == {"a": [1, 2]}
            assert rt.stats()["shard_failovers"] == 1

    def test_uncapped_pool_replaces_the_dead_worker_with_a_fresh_process(self):
        backend = ProcessBackend()  # one process per handler
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("ledgers", shards=2).create(Ledger)
            with group.separate() as g:
                g.on(KEYS[0]).record("a", 1)
            placement = dict(group.topology.placement)
            dead_pid = _kill_worker_of(backend, "ledgers/shard0")
            with group.separate() as g:
                g.on(KEYS[0]).record("a", 2)
            after = dict(group.topology.placement)
            assert after["ledgers/shard0"] != f"worker:{dead_pid}"
            # the survivor's placement is untouched; the orphan got its own
            # fresh process, preserving the one-process-per-handler shape
            assert after["ledgers/shard1"] == placement["ledgers/shard1"]
            assert after["ledgers/shard0"] != after["ledgers/shard1"]

    def test_plain_handlers_fail_over_too(self):
        """Failover is a backend property, not a sharding feature."""
        backend = ProcessBackend(processes=2)
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("ledger").create(Ledger)
            with rt.separate(ref) as led:
                led.record("k", 1)
            _kill_worker_of(backend, "ledger")
            with rt.separate(ref) as led:
                led.record("k", 2)
                assert led.dump() == {"k": [1, 2]}
            assert rt.stats()["shard_failovers"] == 1

    def test_fire_and_forget_block_into_a_dead_worker_is_not_lost(self, monkeypatch):
        """A coalesced block with no reply wait must not vanish silently.

        The whole block leaves in *one* sendall, and a sendall into a
        freshly killed worker succeeds (the kernel buffers it before the
        RST lands) — so without the post-flush liveness probe the client
        completes the block, nobody replays it, and its ticket becomes a
        gap that wedges the replacement's in-order drain forever."""
        backend = ProcessBackend(processes=2)
        monkeypatch.setattr(process_backend, "REPLY_TIMEOUT", 30.0)  # fail fast if the drain wedges
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("ledger").create(Ledger)
            with rt.separate(ref) as led:
                led.record("k", 1)
            _kill_worker_of(backend, "ledger")
            # fire-and-forget: commands only, flushed by the block's end —
            # the client never waits on a reply inside this block
            with rt.separate(ref) as led:
                led.record("k", 2)
            # the next block's query must see *both* post-kill records
            with rt.separate(ref) as led:
                assert led.dump() == {"k": [1, 2]}
            assert rt.stats()["shard_failovers"] == 1

    def test_rebalance_after_failover(self):
        """A live reshard still works once a shard has been re-pinned."""
        backend = ProcessBackend(processes=3)
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("ledgers", shards=3).create(Ledger)
            with group.separate() as g:
                for n, key in enumerate(KEYS):
                    g.on(key).record(key, n)
            _kill_worker_of(backend, "ledgers/shard0")
            group.rebalance(5, keys=KEYS)
            with group.separate() as g:
                dumps = g.gather("dump")
            merged = {}
            for dump in dumps:
                merged.update(dump)
            assert merged == {key: [n] for n, key in enumerate(KEYS)}
            stats = rt.stats()
            assert stats["shard_failovers"] >= 1
            assert stats["ring_epoch"] == 1


class TestHybridWorkerFailover:
    """The same contract with coroutine clients on the hybrid backend: the
    per-queue reader task detects the dead worker, re-pins and replays off
    the loop thread, and every awaiting coroutine's sequence completes."""

    def test_killed_worker_under_coroutine_clients_completes_via_failover(self):
        backend = ProcessBackend(processes=2, loops=2)
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("ledgers", shards=2).create(Ledger)

            async def client(i: int) -> None:
                for j in range(20):
                    key = KEYS[(i + j) % len(KEYS)]
                    async with group.separate_async() as g:
                        await g.on(key).record(key, (f"c{i}", j))

            for i in range(3):
                rt.aclient(client, i, name=f"rec-{i}")
            time.sleep(0.05)  # let the coroutines get going
            _kill_worker_of(backend, "ledgers/shard0")
            rt.join_clients()

            with group.separate() as g:
                dumps = g.gather("dump")
            per_client = {}
            for dump in dumps:
                for log in dump.values():
                    for client_id, j in log:
                        per_client.setdefault(client_id, []).append(j)
            assert {c: sorted(js) for c, js in per_client.items()} == {
                f"c{i}": list(range(20)) for i in range(3)}
            for dump in dumps:
                for log in dump.values():
                    seen = {}
                    for client_id, j in log:
                        assert seen.get(client_id, -1) < j, (
                            f"client {client_id} reordered in {log}")
                        seen[client_id] = j
            assert rt.stats()["shard_failovers"] >= 1


#: lists shared by name inside one worker process (see ``Shared.join``)
_POOLS: dict = {}


class Shared(SeparateObject):
    """An append log that can be made to alias another object's list."""

    def __init__(self) -> None:
        self.log = []

    @command
    def join(self, pool: str) -> None:
        # objects are adopted one pickle each, so two of them can only come
        # to share a list inside the worker
        self.log = _POOLS.setdefault(pool, self.log)

    @command
    def record(self, value) -> None:
        self.log.append(value)

    @command
    def grow_a_lock(self) -> None:
        self.lock = threading.Lock()  # from now on the object will not pickle

    @query
    def size(self) -> int:
        return len(self.log)

    @query
    def slow_size(self, seconds: float) -> int:
        time.sleep(seconds)
        return len(self.log)

    @query
    def dump(self) -> list:
        return list(self.log)


WARM_BLOCKS, KILL_BLOCKS, PER_BLOCK = 40, 6, 50


def _thread_writer(rt, backend, ref, i, first, blocks, kill_in, seen) -> None:
    for k in range(first, first + blocks):
        with rt.separate(ref) as obj:
            for j in range(PER_BLOCK):
                if k == kill_in and j == PER_BLOCK // 2:
                    obj.size()  # a consumed reply: its replay must be dropped as stale
                    seen["checkpoints"] = rt.stats()["journal_checkpoints"]
                    _kill_worker_of(backend, "shared")
                obj.record((i, k * PER_BLOCK + j))
            obj.size()  # checkpoints ride on replies


async def _coroutine_writer(rt, backend, ref, i, first, blocks, kill_in, seen) -> None:
    for k in range(first, first + blocks):
        async with rt.aclient().separate(ref) as obj:
            for j in range(PER_BLOCK):
                if k == kill_in and j == PER_BLOCK // 2:
                    await obj.size()
                    seen["checkpoints"] = rt.stats()["journal_checkpoints"]
                    _kill_worker_of(backend, "shared")
                await obj.record((i, k * PER_BLOCK + j))
            await obj.size()


class TestAQueryRidingItsSyncFailsOver:
    """An unsynced query is one frame and one reply; the worker dies between."""

    @pytest.mark.parametrize("loops", [0, 1], ids=["process", "process+async:1:1"])
    def test_kill_between_the_query_frame_and_its_reply(self, loops):
        backend = ProcessBackend(processes=1, loops=loops)
        seen = {}

        def observe(client, value) -> None:
            seen["dump"] = value
            seen["replies"] = client.queue_for(ref.handler).core.replies_seen

        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("shared").create(Shared)

            def thread_client() -> None:
                client = rt.client()
                with rt.separate(ref) as obj:
                    obj.record(0)
                    assert obj.size() == 1  # a consumed reply: its replay is stale
                    for j in range(1, 5):
                        obj.record(j)
                    pending = client.issue_query(ref, "dump")  # the frame has left
                    _kill_worker_of(backend, "shared")
                    observe(client, pending.wait())
                    seen["size"] = obj.size()  # parked on the replacement: no sync

            async def coroutine_client() -> None:
                client = rt.aclient()
                async with client.separate(ref) as obj:
                    await obj.record(0)
                    assert await obj.size() == 1
                    for j in range(1, 5):
                        await obj.record(j)
                    pending = client.issue_query(ref, "dump")
                    _kill_worker_of(backend, "shared")
                    observe(client._client, await pending.wait_async())
                    seen["size"] = await obj.size()

            rt.client(coroutine_client if loops else thread_client)
            rt.join_clients()
            rt.shutdown()
            stats = rt.stats()
        # the right value, once: the replayed block regenerates the first
        # reply (dropped as stale) and produces the one the kill swallowed
        assert seen == {"dump": [0, 1, 2, 3, 4], "replies": 2, "size": 5}
        assert stats["calls_executed"] == stats["async_calls"] == 5
        assert (stats["sync_roundtrips"], stats["syncs_elided"]) == (2, 1)
        assert stats["shard_failovers"] == 1

    @pytest.mark.parametrize("loops", [0, 1], ids=["process", "process+async:1:1"])
    def test_kill_under_a_running_body_whose_query_is_then_abandoned(self, loops, monkeypatch):
        # the block ends before anyone notices the dead worker, so the
        # failover pre-files it on the replacement and nothing is replayed to
        # this client: the abandoned reply died with the worker, and the next
        # block's own reply must not be discarded (or stolen) in its place
        backend = ProcessBackend(processes=1, loops=loops)
        monkeypatch.setattr(process_backend, "REPLY_TIMEOUT", 10.0)
        seen = {}

        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("shared").create(Shared)

            def thread_client() -> None:
                client = rt.client()
                with rt.separate(ref) as obj:
                    obj.record(0)
                    client.issue_query(ref, "slow_size", 0.5)  # never waited for
                    time.sleep(0.1)  # the body is running
                    _kill_worker_of(backend, "shared")
                with rt.separate(ref) as obj:  # the cached queue
                    obj.record(1)
                    seen["size"] = obj.size()
                    seen["debt"] = client.queue_for(ref.handler).core.stale_replies

            async def coroutine_client() -> None:
                client = rt.aclient()
                async with client.separate(ref) as obj:
                    await obj.record(0)
                    client.issue_query(ref, "slow_size", 0.5)
                    await asyncio.sleep(0.1)
                    _kill_worker_of(backend, "shared")
                async with client.separate(ref) as obj:
                    await obj.record(1)
                    seen["size"] = await asyncio.wait_for(obj.size(), 10.0)
                    seen["debt"] = client._client.queue_for(ref.handler).core.stale_replies

            rt.client(coroutine_client if loops else thread_client)
            rt.join_clients()
            rt.shutdown()
            stats = rt.stats()
        assert seen == {"size": 2, "debt": 0}
        assert stats["calls_executed"] == stats["async_calls"] == 2
        assert stats["shard_failovers"] == 1


class TestCheckpointedFailover:
    """Restoration is the last checkpoint plus the tail of the journal."""

    @pytest.mark.parametrize("loops", [0, 1], ids=["process", "process+async:1:1"])
    def test_kill_after_three_checkpoints_is_lossless(self, loops):
        backend = ProcessBackend(processes=1, loops=loops)
        seen = {}
        with QsRuntime("all", backend=backend) as rt:
            spawn, writer = ((rt.aclient, _coroutine_writer) if loops
                             else (rt.client, _thread_writer))
            handler = rt.new_handler("shared")
            a, b = handler.create(Shared), handler.create(Shared)
            with rt.separate(a, b) as (left, right):
                left.join("pool")
                right.join("pool")

            for i in range(2):
                spawn(writer, rt, backend, a, i, 0, WARM_BLOCKS, None, seen)
            rt.join_clients()
            assert rt.stats()["journal_checkpoints"] >= 3
            late = handler.create(Shared)  # adopted after a checkpoint
            with rt.separate(late) as obj:
                obj.record("late")

            # client 0 kills the worker in the middle of its third block
            for i in range(2):
                spawn(writer, rt, backend, a, i, WARM_BLOCKS, KILL_BLOCKS,
                      WARM_BLOCKS + 2 if i == 0 else None, seen)
            rt.join_clients()
            assert seen["checkpoints"] >= 3

            # read through b: it still aliases a's list after the restore
            with rt.separate(b, late) as (right, other):
                log = right.dump()
                assert other.dump() == ["late"]
            total = (WARM_BLOCKS + KILL_BLOCKS) * PER_BLOCK
            # lossless, and each client's records in issue order
            for i in range(2):
                assert [n for client, n in log if client == i] == list(range(total))
            assert len(log) == 2 * total
            assert rt.stats()["shard_failovers"] == 1
            rt.shutdown()
            # the replacement started from the checkpoint's counters and
            # re-executed only the tail: joins + "late" + every record, once
            assert rt.stats()["calls_executed"] == 3 + 2 * total

    def test_the_journal_is_a_bounded_window(self):
        backend = ProcessBackend(processes=1)
        # a block is 34 requests (32 commands, the query, the end) in three
        # frames (the burst, invoke, end); a checkpoint interval is at least
        # CHECKPOINT_MIN_FRAMES requests, so at most this many blocks
        per_block, interval_blocks = 3, -(-CHECKPOINT_MIN_FRAMES // 32)
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("shared").create(Shared)
            for _ in range(20_000 // 32):
                with rt.separate(ref) as obj:
                    for n in range(32):
                        obj.record(n)
                    obj.size()
                # one interval waiting to be covered, one being filled
                assert backend.journal_size()[1] < (2 * interval_blocks + 1) * per_block
            stats = rt.stats()
            assert stats["journal_checkpoints"] >= 15
            # each dropped at least an interval's blocks
            assert (stats["journal_frames_dropped"]
                    >= 15 * (CHECKPOINT_MIN_FRAMES // 34) * per_block)
            assert stats["journal_checkpoint_errors"] == 0

    def test_state_that_stops_pickling_degrades_to_the_full_journal(self):
        backend = ProcessBackend(processes=1)
        blocks = 2 * CHECKPOINT_MIN_FRAMES // 32
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("shared").create(Shared)
            with rt.separate(ref) as obj:
                obj.grow_a_lock()
            for k in range(blocks):
                with rt.separate(ref) as obj:
                    for n in range(32):
                        obj.record(k * 32 + n)
                    obj.size()
            stats = rt.stats()
            assert stats["journal_checkpoint_errors"] >= 1  # loudly ...
            assert stats["journal_checkpoints"] == 0
            assert backend.journal_size()[0] == blocks + 1  # ... nothing truncated
            # ... and the drain lives on; recovery is adopt-time + lifetime
            _kill_worker_of(backend, "shared")
            with rt.separate(ref) as obj:
                assert obj.dump() == list(range(blocks * 32))


class Echo(SeparateObject):
    """A log and a query that hands its argument back."""

    def __init__(self) -> None:
        self.log = []

    @command
    def record(self, value) -> None:
        self.log.append(value)

    @query
    def size(self) -> int:
        return len(self.log)

    @query
    def echo(self, value):
        return value


#: per codec, a query argument it refuses: a nested tuple json would turn
#: into a list, a lock neither pickle nor bin can carry
UNENCODABLE = {"json": (2, 3), "pickle": threading.Lock(), "bin": threading.Lock()}

#: how long a reply may take, kill and failover included
FAILOVER_BOUND = 5.0


def _refusals(obj, bad) -> list:
    """Issue a query carrying ``bad`` and a ``compute`` shipping a lambda
    (no codec carries one); each must raise at the call."""
    refused = []
    for issue in (lambda: obj.echo(bad), lambda: obj.compute(lambda o: len(o.log))):
        try:
            issue()
        except Exception as exc:  # noqa: BLE001 - which error is the codec's business
            refused.append(type(exc).__name__)
        else:
            refused.append(None)
    return refused


async def _async_refusals(obj, bad) -> list:
    refused = []
    for issue in (lambda: obj.echo(bad), lambda: obj.compute(lambda o: len(o.log))):
        try:
            await issue()
        except Exception as exc:  # noqa: BLE001
            refused.append(type(exc).__name__)
        else:
            refused.append(None)
    return refused


class TestARefusedRequestWedgesNothing:
    """A request the codec refuses raises at the call and leaves no trace.

    Nothing of it is journaled, counted or owed a reply, so the block ends,
    the next blocks' replies are their own, and a replacement worker is
    restored from a journal it can be sent.
    """

    @pytest.mark.parametrize("codec", ["json", "pickle", "bin"])
    @pytest.mark.parametrize("loops", [0, 1], ids=["thread", "coroutine"])
    @pytest.mark.parametrize("level", ["all", "qoq"])
    def test_the_next_blocks_answer_before_and_after_a_kill(self, codec, loops, level,
                                                            monkeypatch):
        monkeypatch.setattr(process_backend, "REPLY_TIMEOUT", FAILOVER_BOUND)
        backend = ProcessBackend(processes=1, codec=codec, loops=loops)
        bad = UNENCODABLE[codec]
        seen = {"refused": [], "answers": []}

        def thread_client() -> None:
            for kill in (False, True):
                with rt.separate(ref) as obj:
                    obj.record("x")
                    seen["refused"].append(_refusals(obj, bad))
                if kill:
                    _kill_worker_of(backend, "echo")
                for k in range(2):
                    with rt.separate(ref) as obj:
                        obj.record(k)
                        seen["answers"].append((obj.size(), obj.echo(k)))

        async def coroutine_client() -> None:
            client = rt.aclient()
            for kill in (False, True):
                async with client.separate(ref) as obj:
                    await obj.record("x")
                    seen["refused"].append(await _async_refusals(obj, bad))
                if kill:
                    _kill_worker_of(backend, "echo")
                for k in range(2):
                    async with client.separate(ref) as obj:
                        await obj.record(k)
                        size = await asyncio.wait_for(obj.size(), FAILOVER_BOUND)
                        echoed = await asyncio.wait_for(obj.echo(k), FAILOVER_BOUND)
                        seen["answers"].append((size, echoed))

        with QsRuntime(level, backend=backend) as rt:
            ref = rt.new_handler("echo").create(Echo)
            rt.client(coroutine_client if loops else thread_client)
            rt.join_clients()
            stats = rt.stats()
        assert all(None not in refused for refused in seen["refused"]), seen
        assert len(seen["refused"]) == 2
        assert seen["answers"] == [(2, 0), (3, 1), (5, 0), (6, 1)]
        assert stats["shard_failovers"] == 1
