"""Worker fault tolerance on the process backend.

The contract under test (see ``docs/backends.md``): when a worker process
dies mid-run, the parent detects the broken framed connections, re-pins the
dead worker's handlers onto survivors (capped pools) or fresh processes
(uncapped pools), restores hosted objects from their adopt-time snapshots,
and replays the frame journal in ticket order — so every client's request
sequence completes without a drop or a reorder, and ``shard_failovers``
counts the re-pinned handlers.  With ``failover=False`` the backend keeps
the old fail-stop behaviour.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.backends import ProcessBackend
from repro.errors import ScoopError


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

    def test_fire_and_forget_block_into_a_dead_worker_is_not_lost(self):
        """A coalesced block with no reply wait must not vanish silently.

        The whole block leaves in *one* sendall, and a sendall into a
        freshly killed worker succeeds (the kernel buffers it before the
        RST lands) — so without the post-flush liveness probe the client
        completes the block, nobody replays it, and its ticket becomes a
        gap that wedges the replacement's in-order drain forever."""
        backend = ProcessBackend(processes=2)
        backend.reply_timeout = 30.0  # fail fast if the drain wedges
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

    def test_failover_disabled_keeps_fail_stop(self):
        backend = ProcessBackend(processes=1, failover=False)
        rt = QsRuntime("all", backend=backend)
        try:
            ref = rt.new_handler("ledger").create(Ledger)
            with rt.separate(ref) as led:
                led.record("k", 1)
            _kill_worker_of(backend, "ledger")
            with pytest.raises((ScoopError, OSError)):
                with rt.separate(ref) as led:
                    led.record("k", 2)
                    led.dump()
            assert rt.stats()["shard_failovers"] == 0
        finally:
            try:
                rt.shutdown(check_failures=False)
            except (ScoopError, OSError):
                pass  # fail-stop: the dead worker cannot answer the close


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

    def test_failover_disabled_poisons_the_coroutine_queue(self):
        backend = ProcessBackend(processes=1, loops=1, failover=False)
        rt = QsRuntime("all", backend=backend)
        outcomes = []
        try:
            ref = rt.new_handler("ledger").create(Ledger)

            async def writer() -> None:
                async with rt.aclient().separate(ref) as led:
                    await led.record("k", 1)
                    assert await led.dump() == {"k": [1]}
                _kill_worker_of(backend, "ledger")
                try:
                    async with rt.aclient().separate(ref) as led:
                        await led.record("k", 2)
                        await led.dump()
                except (ScoopError, OSError) as exc:
                    outcomes.append(type(exc).__name__)

            rt.aclient(writer)
            rt.join_clients()
            assert outcomes, "the dead worker must surface as an error"
            assert rt.stats()["shard_failovers"] == 0
        finally:
            try:
                rt.shutdown(check_failures=False)
            except (ScoopError, OSError):
                pass  # fail-stop: the dead worker cannot answer the close
