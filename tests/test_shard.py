"""Sharded handler groups: routing, scatter-gather, all-backend parity.

The contract under test (see ``docs/sharding.md``): every per-shard QoQ
guarantee survives sharding because each shard is an ordinary handler —
identical results *and counters* on ``threads``/``sim``/``process``/
``async``/``process+async`` for the same seeded workload, merge-identical
scatter-gather on every backend, process-stable key routing, and
deterministic placement of replicas across the process backend's worker
pool.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.backends import ProcessBackend
from repro.config import LEVEL_ORDER
from repro.errors import ScoopError
from repro.shard import HashRing, ShardedGroup, stable_key_bytes

SHARD_BACKENDS = ("threads", "sim", "process", "async", "process+async:2:2")

#: counters whose values are schedule-independent for the workloads below
PARITY_COUNTERS = (
    "async_calls",
    "queries",
    "sync_roundtrips",
    "syncs_elided",
    "reservations",
    "multi_reservations",
    "qoq_enqueues",
    "calls_executed",
    "shard_routes",
    "shard_broadcasts",
    "shard_gathers",
    "reshard_moves",
    "ring_epoch",
    "shard_failovers",
)


class Cell(SeparateObject):
    """Per-shard replica of the sharded counter used throughout this module."""

    def __init__(self, value: int = 0) -> None:
        self.value = value

    @command
    def add(self, amount: int) -> None:
        self.value += amount

    @query
    def read(self) -> int:
        return self.value

    @query
    def nap(self, seconds: float) -> int:
        time.sleep(seconds)
        return self.value


class Ledger(SeparateObject):
    """Per-key append logs — migratable state for the rebalance tests."""

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


class ShardAccount(SeparateObject):
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


# ----------------------------------------------------------------------------
# the shared parity workload
# ----------------------------------------------------------------------------
def sharded_workload(backend: str) -> dict:
    """Routed transfers + broadcast + gathers; deterministic on any backend."""
    with QsRuntime("all", backend=backend) as rt:
        group = rt.sharded("accounts", shards=4).create(ShardAccount, 100)
        keys = [f"acct-{i}" for i in range(10)]

        def transferrer(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(12):
                src, dst = rng.sample(keys, 2)
                amount = rng.randint(1, 9)
                with group.separate() as g:
                    g.on(src).debit(amount)
                    g.on(dst).credit(amount)

        for i in range(3):
            rt.client(transferrer, i, name=f"transfer-{i}")
        rt.join_clients()
        with group.separate() as g:
            g.broadcast("credit", 5)
            per_shard = g.gather("read")
            total = g.gather("read", merge=sum)
            routed = g.query("acct-0", "read")
        routes = [group.shard_of(k) for k in keys]
        counters = {name: rt.stats()[name] for name in PARITY_COUNTERS}
    return {"per_shard": per_shard, "total": total, "routed": routed,
            "routes": routes, "counters": counters}


# ----------------------------------------------------------------------------
# the ring
# ----------------------------------------------------------------------------
class TestHashRing:
    def test_every_shard_owns_keys(self):
        ring = HashRing(4, name="t")
        owners = {ring.owner_of(f"key-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_routing_is_deterministic_across_ring_instances(self):
        a, b = HashRing(5, name="g"), HashRing(5, name="g")
        for i in range(200):
            assert a.owner_of(i) == b.owner_of(i)

    def test_distribution_is_roughly_even(self):
        ring = HashRing(4, name="t")
        counts = [0, 0, 0, 0]
        for i in range(4000):
            counts[ring.owner_of(f"key-{i}")] += 1
        # vnodes keep the arcs statistically even; a 3x skew would mean the
        # ring is broken, not merely unlucky
        assert max(counts) < 3 * min(counts)

    def test_consistent_hashing_moves_few_keys(self):
        old, new = HashRing(4, name="g"), HashRing(5, name="g")
        keys = [f"key-{i}" for i in range(2000)]
        moved = new.moved_keys(old, keys)
        # ideal is 1/5 of the key space; allow slack but reject modulo-style
        # reshuffling (which would move ~4/5 of the keys)
        assert 0 < len(moved) < len(keys) // 2

    def test_stable_key_bytes_distinguishes_types(self):
        encodings = {stable_key_bytes(k) for k in (1, "1", 1.0, True, b"1", (1,))}
        assert len(encodings) == 6

    def test_tuple_keys_are_canonical(self):
        assert stable_key_bytes(("a", 1)) == stable_key_bytes(("a", 1))
        assert stable_key_bytes(("ab", 1)) != stable_key_bytes(("a", "b1"))

    def test_unsupported_key_types_rejected(self):
        with pytest.raises(TypeError, match="shard_key function"):
            stable_key_bytes(object())
        with pytest.raises(TypeError):
            HashRing(2).owner_of(["list", "key"])

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


# ----------------------------------------------------------------------------
# group construction and the reshard hook (in-memory backends via fixtures)
# ----------------------------------------------------------------------------
class TestGroupBasics:
    def test_handlers_named_and_counted(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=3).create(Cell)
        assert group.shards == 3
        assert [h.name for h in group.handlers] == [
            "cells/shard0", "cells/shard1", "cells/shard2"]

    def test_ref_for_matches_shard_of(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=3).create(Cell)
        for key in ("a", "b", 7, (1, "x")):
            assert group.ref_for(key) is group.refs[group.shard_of(key)]

    def test_shard_key_function_is_applied(self, qs_runtime):
        keyed = ShardedGroup(qs_runtime, "keyed", shards=3,
                             shard_key=lambda record: record["id"]).create(Cell)
        ring = HashRing(3, name="keyed")
        for i in range(20):
            assert keyed.shard_of({"id": f"u{i}"}) == ring.owner_of(f"u{i}")

    def test_unpopulated_group_rejects_blocks(self, qs_runtime):
        group = qs_runtime.sharded("empty", shards=2)
        with pytest.raises(ScoopError, match="no replicas"):
            group.separate()
        with pytest.raises(ScoopError, match="no replicas"):
            group.ref_for("k")

    def test_adopt_validates_replica_count_and_repopulation(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=2)
        with pytest.raises(ScoopError, match="2 shards"):
            group.adopt([Cell()])
        group.adopt([Cell(), Cell()])
        with pytest.raises(ScoopError, match="already has its replicas"):
            group.adopt([Cell(), Cell()])

    def test_zero_shards_rejected(self, qs_runtime):
        with pytest.raises(ScoopError, match="at least one shard"):
            qs_runtime.sharded("cells", shards=0)

    def test_plain_separate_works_on_a_shard_ref(self, qs_runtime):
        """A shard ref is an ordinary SeparateRef — usable without the proxy."""
        group = qs_runtime.sharded("cells", shards=2).create(Cell)
        with qs_runtime.separate(group.ref_for("k")) as cell:
            cell.add(3)
            assert cell.read() == 3

    def test_plan_reshard_reports_moved_keys_only(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=4).create(Cell)
        keys = [f"key-{i}" for i in range(400)]
        plan = group.plan_reshard(6, keys=keys)
        assert plan.old_shards == 4 and plan.new_shards == 6
        assert 0 < len(plan.moved) < len(keys)
        assert 0 < plan.moved_fraction < 1
        for key, old, new in plan.assignments:
            assert old == group.shard_of(key)
            assert (key in plan.moved) == (old != new)

    def test_plan_reshard_accepts_unhashable_keys_via_shard_key(self, qs_runtime):
        # routing accepts dict keys through shard_key; planning must too
        group = ShardedGroup(qs_runtime, "recs", shards=4,
                             shard_key=lambda record: record["id"]).create(Cell)
        keys = [{"id": f"u{i}"} for i in range(100)]
        plan = group.plan_reshard(5, keys=keys)
        assert len(plan.assignments) == 100
        for key, old, new in plan.assignments:
            assert old == group.shard_of(key)

    def test_topology_is_a_read_only_snapshot(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=3).create(Cell)
        topo = group.topology
        assert topo.group == "cells"
        assert topo.shards == 3
        assert topo.ring_epoch == 0
        assert [name for name, _ in topo.placement] == [h.name for h in group.handlers]
        with pytest.raises(Exception):  # frozen dataclass
            topo.shards = 5

    def test_rebalance_rejects_a_plan_for_another_group(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=2).create(Ledger)
        other = qs_runtime.sharded("other", shards=2).create(Ledger)
        plan = other.plan_reshard(3)
        with pytest.raises(ScoopError, match="is for group 'other'"):
            group.rebalance(plan)

    def test_rebalance_rejects_a_stale_plan(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=2).create(Ledger)
        stale = group.plan_reshard(3, keys=["a", "b"])
        group.rebalance(4, keys=["a", "b"])
        with pytest.raises(ScoopError, match="stale reshard plan"):
            group.rebalance(stale)

    def test_rebalance_requires_migration_hooks_when_keys_move(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=2).create(Cell)
        keys = [f"key-{i}" for i in range(50)]
        with pytest.raises(ScoopError, match="reshard_export"):
            group.rebalance(4, keys=keys)
        # ...but a reshard that moves nothing works without the hooks
        plan = group.rebalance(4)
        assert plan.moved == [] and group.shards == 4 and group.epoch == 1

    def test_growing_an_adopted_group_needs_replica_objects(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=2)
        group.adopt([Ledger(), Ledger()])
        with pytest.raises(ScoopError, match="populated via adopt"):
            group.rebalance(3)
        group.rebalance(3, replicas=[Ledger()])
        assert group.shards == 3
        with pytest.raises(ScoopError, match="1 replica objects were supplied"):
            group.rebalance(5, replicas=[Ledger()])

    def test_rebalance_to_the_same_ring_is_a_no_op(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=3).create(Ledger)
        plan = group.rebalance(3)
        assert plan.new_shards == 3
        assert group.epoch == 0  # identical ring: epoch not bumped


# ----------------------------------------------------------------------------
# behaviour on every backend
# ----------------------------------------------------------------------------
@pytest.mark.parametrize("backend", SHARD_BACKENDS)
class TestShardedOnEachBackend:
    def test_routed_requests_land_on_the_owner(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("cells", shards=3).create(Cell)
            keys = [f"key-{i}" for i in range(12)]
            with group.separate() as g:
                for key in keys:
                    g.on(key).add(1)
                per_shard = g.gather("read")
            expected = [0, 0, 0]
            for key in keys:
                expected[group.shard_of(key)] += 1
            assert per_shard == expected
            assert sum(per_shard) == len(keys)

    def test_gather_merges_identically(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("cells", shards=4).create(Cell, 10)
            with group.separate() as g:
                g.on("a").add(5)
                per_shard = g.gather("read")
                assert per_shard == g.gather("read")  # shard order is stable
                assert per_shard[group.shard_of("a")] == 15
                assert g.gather("read", merge=sum) == 45
                assert g.gather("read", merge=max) == 15

    def test_broadcast_reaches_every_shard(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("cells", shards=3).create(Cell)
            with group.separate() as g:
                g.broadcast("add", 7)
                assert g.gather("read") == [7, 7, 7]

    def test_explicit_call_and_query_route(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("cells", shards=3).create(Cell)
            with group.separate() as g:
                g.call("k1", "add", 4)
                assert g.query("k1", "read") == 4
                assert g.shard(group.shard_of("k1")).read() == 4

    def test_per_client_fifo_to_each_shard(self, backend):
        """A gather in the logging block sees every preceding routed add."""
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("cells", shards=3).create(Cell)
            for round_no in range(1, 6):
                with group.separate() as g:
                    for i in range(9):
                        g.on(f"key-{i}").add(1)
                    assert g.gather("read", merge=sum) == 9 * round_no


# ----------------------------------------------------------------------------
# live resharding on every backend
# ----------------------------------------------------------------------------
@pytest.mark.parametrize("backend", SHARD_BACKENDS)
class TestRebalanceOnEachBackend:
    KEYS = [f"acct-{i}" for i in range(12)]

    def _populate(self, group) -> None:
        with group.separate() as g:
            for n, key in enumerate(self.KEYS):
                g.on(key).record(key, n)

    def _collect(self, group) -> dict:
        with group.separate() as g:
            dumps = g.gather("dump")
        merged = {}
        for shard, dump in enumerate(dumps):
            for key, log in dump.items():
                assert key not in merged, f"{key!r} on two shards after reshard"
                merged[key] = (shard, log)
        return merged

    def test_grow_migrates_every_moved_key(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("ledgers", shards=3).create(Ledger)
            self._populate(group)
            plan = group.rebalance(5, keys=self.KEYS)
            assert group.shards == 5 and group.epoch == 1
            merged = self._collect(group)
            assert set(merged) == set(self.KEYS)
            for n, key in enumerate(self.KEYS):
                shard, log = merged[key]
                assert log == [n]
                assert shard == group.shard_of(key)  # final ring owns it
            stats = rt.stats()
            assert stats["reshard_moves"] == len(plan.moved) > 0
            assert stats["ring_epoch"] == 1

    def test_shrink_then_regrow_round_trips_state(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("ledgers", shards=4).create(Ledger)
            self._populate(group)
            group.rebalance(2, keys=self.KEYS)
            assert group.shards == 2
            # the regrown shards carry epoch-suffixed handler names (the
            # shrink retired the base names in the runtime registry)
            group.rebalance(4, keys=self.KEYS)
            assert group.shards == 4 and group.epoch == 2
            merged = self._collect(group)
            assert set(merged) == set(self.KEYS)
            for n, key in enumerate(self.KEYS):
                assert merged[key][1] == [n]
                assert merged[key][0] == group.shard_of(key)
            assert rt.stats()["ring_epoch"] == 2

    def test_traffic_lands_on_the_new_ring_after_rebalance(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("ledgers", shards=2).create(Ledger)
            self._populate(group)
            group.rebalance(5, keys=self.KEYS)
            with group.separate() as g:
                for key in self.KEYS:
                    g.on(key).record(key, "post")
            merged = self._collect(group)
            for n, key in enumerate(self.KEYS):
                # pre-reshard and post-reshard records meet on one shard,
                # in per-client order
                assert merged[key][1] == [n, "post"]

    def test_topology_reflects_the_new_placement(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("ledgers", shards=2).create(Ledger)
            before = group.topology
            group.rebalance(4, keys=[])
            after = group.topology
            assert before.shards == 2 and after.shards == 4
            assert after.ring_epoch == before.ring_epoch + 1
            assert len(after.placement) == 4
            hosts = dict(after.placement)
            if backend.startswith("process+async"):
                # hybrid placement names both halves: worker pid + client loop
                assert all(host.startswith("worker:") and "+loop:" in host
                           for host in hosts.values())
            elif backend == "process":
                assert all(host.startswith("worker:") for host in hosts.values())
            elif backend == "async":
                assert all(host.startswith("loop:") for host in hosts.values())
            else:
                assert set(hosts.values()) == {"in-process"}


# ----------------------------------------------------------------------------
# cross-backend parity (identical results AND counters)
# ----------------------------------------------------------------------------
def resharding_workload(backend: str) -> dict:
    """Records + two live reshards (grow, shrink); deterministic anywhere."""
    with QsRuntime("all", backend=backend) as rt:
        group = rt.sharded("ledgers", shards=3).create(Ledger)
        keys = [f"acct-{i}" for i in range(10)]
        with group.separate() as g:
            for n, key in enumerate(keys):
                g.on(key).record(key, n)
        group.rebalance(5, keys=keys)
        with group.separate() as g:
            for key in keys:
                g.on(key).record(key, "mid")
        group.rebalance(2, keys=keys)
        with group.separate() as g:
            dumps = g.gather("dump")
        counters = {name: rt.stats()[name] for name in PARITY_COUNTERS}
    merged = {}
    for dump in dumps:
        merged.update(dump)
    return {"merged": merged, "shards": len(dumps), "counters": counters}


def test_resharding_backends_agree():
    results = {backend: resharding_workload(backend) for backend in SHARD_BACKENDS}
    reference = results["threads"]
    assert reference["shards"] == 2
    assert reference["counters"]["ring_epoch"] == 2
    assert reference["counters"]["reshard_moves"] > 0
    assert reference["counters"]["shard_failovers"] == 0
    for backend in SHARD_BACKENDS[1:]:
        assert results[backend] == reference, (
            f"resharding results and counters must not depend on the backend "
            f"({backend} vs threads)")


def test_sharded_backends_agree():
    results = {backend: sharded_workload(backend) for backend in SHARD_BACKENDS}
    reference = results["threads"]
    assert reference["total"] == 4 * 100 + 4 * 5
    for backend in SHARD_BACKENDS[1:]:
        assert results[backend] == reference, (
            f"sharded results and counters must not depend on the backend "
            f"({backend} vs threads)")


def test_sim_sharded_runs_are_reproducible():
    first = sharded_workload("sim")
    second = sharded_workload("sim")
    assert first == second


# ----------------------------------------------------------------------------
# scatter-gather across every optimization level (both query protocols)
# ----------------------------------------------------------------------------
@pytest.mark.parametrize("level", [level.value for level in LEVEL_ORDER])
def test_gather_on_every_level(level):
    """issue_query must work packaged (no client-executed queries) and split."""
    with QsRuntime(level) as rt:
        group = rt.sharded("cells", shards=3).create(Cell, 2)
        with group.separate() as g:
            g.on("x").add(1)
            assert g.gather("read", merge=sum) == 7
            # a second gather in the same block exercises sync coalescing
            assert g.gather("read", merge=sum) == 7
            assert sorted(g.gather("read")) == [2, 2, 3]


@pytest.mark.parametrize("backend, coroutine", [
    ("process", False), ("process+async:4:2", False), ("process+async:4:2", True)])
def test_gather_bodies_overlap_on_process_backends(backend, coroutine):
    """Scatter-gather scatters: on a wire queue the body rides the sync, so
    issuing puts four 50 ms bodies on four workers before the first wait
    (two sequential round trips per shard, 0.2 s, before that)."""
    walls = []
    with QsRuntime("all", backend=backend) as rt:
        group = rt.sharded("cells", shards=4).create(Cell, 1)

        def thread_client() -> None:
            for _ in range(3):  # the first block also connects; keep the best
                with group.separate() as g:
                    started = time.perf_counter()
                    assert g.gather("nap", 0.05) == [1, 1, 1, 1]
                    walls.append(time.perf_counter() - started)

        async def coroutine_client() -> None:
            for _ in range(3):
                async with group.separate_async() as g:
                    started = time.perf_counter()
                    assert await g.gather("nap", 0.05) == [1, 1, 1, 1]
                    walls.append(time.perf_counter() - started)

        if coroutine:
            rt.aclient(coroutine_client)
        else:
            rt.client(thread_client)
        rt.join_clients()
    assert len(walls) == 3
    assert 0.05 <= min(walls) < 0.12, walls


# ----------------------------------------------------------------------------
# the issue/wait split's misuse guards
# ----------------------------------------------------------------------------
class TestPendingQueryGuards:
    def test_waiting_twice_raises(self, qs_runtime):
        ref = qs_runtime.new_handler("cell").create(Cell, 4)
        client = qs_runtime.current_client()
        with qs_runtime.separate(ref):
            pending = client.issue_query(ref, "read")
            assert pending.wait() == 4
            with pytest.raises(ScoopError, match="already been consumed"):
                pending.wait()

    def test_logging_while_a_query_is_pending_raises(self, qs_runtime):
        # under client-executed queries the handler must stay parked between
        # the issued SYNC and the wait; another request would corrupt that
        ref = qs_runtime.new_handler("cell").create(Cell)
        client = qs_runtime.current_client()
        with qs_runtime.separate(ref) as cell:
            pending = client.issue_query(ref, "read")
            if qs_runtime.config.client_executed_queries:
                with pytest.raises(ScoopError, match="still pending"):
                    cell.add(1)
                with pytest.raises(ScoopError, match="still pending"):
                    client.issue_query(ref, "read")
            assert pending.wait() == 0
            cell.add(1)  # consumed: the handler is usable again
            assert cell.read() == 1

    def test_pending_query_to_another_handler_is_fine(self, qs_runtime):
        group = qs_runtime.sharded("cells", shards=2).create(Cell, 3)
        client = qs_runtime.current_client()
        with group.separate():
            first = client.issue_query(group.refs[0], "read")
            second = client.issue_query(group.refs[1], "read")
            assert (first.wait(), second.wait()) == (3, 3)

    def test_abandoned_pending_query_dies_with_its_block(self, qs_runtime):
        ref = qs_runtime.new_handler("cell").create(Cell)
        client = qs_runtime.current_client()
        with qs_runtime.separate(ref):
            abandoned = client.issue_query(ref, "read")  # never waited for
        with qs_runtime.separate(ref) as cell:  # fresh block works normally
            cell.add(2)
            # the handler is reserved again, but not by the dropped query:
            # its wait must not pass for this block's sync
            with pytest.raises(ScoopError, match="abandoned"):
                abandoned.wait()
            assert cell.read() == 2

    def test_an_abandoned_query_does_not_take_the_pending_one_with_it(self, qs_runtime):
        ref = qs_runtime.new_handler("cell").create(Cell)
        client = qs_runtime.current_client()
        with qs_runtime.separate(ref):
            abandoned = client.issue_query(ref, "read")
        with qs_runtime.separate(ref) as cell:
            cell.add(2)
            pending = client.issue_query(ref, "read")
            with pytest.raises(ScoopError, match="abandoned"):
                abandoned.wait()
            with pytest.raises(ScoopError, match="pending"):
                cell.add(1)  # the handler is still owed to ``pending``
            assert pending.wait() == 2


# ----------------------------------------------------------------------------
# the awaitable proxy (coroutine clients, async backend)
# ----------------------------------------------------------------------------
class TestAsyncShardedProxy:
    def _thread_reference(self) -> dict:
        with QsRuntime("all", backend="async") as rt:
            group = rt.sharded("cells", shards=3).create(Cell)

            def client(seed: int) -> None:
                rng = random.Random(seed)
                for _ in range(10):
                    with group.separate() as g:
                        g.on(f"key-{rng.randint(0, 20)}").add(1)
                        g.gather("read", merge=sum)

            for i in range(3):
                rt.client(client, i, name=f"c-{i}")
            rt.join_clients()
            with group.separate() as g:
                final = g.gather("read")
            counters = {name: rt.stats()[name] for name in PARITY_COUNTERS}
        return {"final": final, "counters": counters}

    def _coroutine_run(self) -> dict:
        with QsRuntime("all", backend="async") as rt:
            group = rt.sharded("cells", shards=3).create(Cell)

            async def client(seed: int) -> None:
                rng = random.Random(seed)
                for _ in range(10):
                    async with group.separate_async() as g:
                        await g.on(f"key-{rng.randint(0, 20)}").add(1)
                        await g.gather("read", merge=sum)

            for i in range(3):
                rt.aclient(client, i, name=f"c-{i}")
            rt.join_clients()
            with group.separate() as g:
                final = g.gather("read")
            counters = {name: rt.stats()[name] for name in PARITY_COUNTERS}
        return {"final": final, "counters": counters}

    def test_coroutine_clients_match_thread_clients(self):
        assert self._coroutine_run() == self._thread_reference()

    def test_awaitable_surface(self):
        with QsRuntime("all", backend="async") as rt:
            group = rt.sharded("cells", shards=4).create(Cell, 1)
            observed = {}

            async def client() -> None:
                async with group.separate_async() as g:
                    await g.broadcast("add", 2)
                    await g.call("k", "add", 3)
                    observed["query"] = await g.query("k", "read")
                    observed["gather"] = await g.gather("read")
                    observed["merged"] = await g.gather("read", merge=sum)
                    observed["shard"] = await g.shard(0).read()

            rt.aclient(client)
            rt.join_clients()
        assert observed["query"] == 6
        assert sorted(observed["gather"]) == [3, 3, 3, 6]
        assert observed["merged"] == 15
        assert observed["shard"] == observed["gather"][0]


# ----------------------------------------------------------------------------
# process-backend placement
# ----------------------------------------------------------------------------
class TestProcessPlacement:
    def test_replicas_spread_round_robin_over_a_capped_pool(self):
        backend = ProcessBackend(processes=2)
        with QsRuntime("all", backend=backend) as rt:
            # earlier handlers shift the global assignment rotation...
            rt.new_handler("frontend")
            group = rt.sharded("cells", shards=4).create(Cell)
            # ...but replicas still pin deterministically to worker i % pool
            workers = [backend._assignment[h.name] for h in group.handlers]
            assert workers[0] is workers[2]
            assert workers[1] is workers[3]
            assert workers[0] is not workers[1]
            with group.separate() as g:
                g.broadcast("add", 1)
                assert g.gather("read", merge=sum) == 4

    def test_uncapped_pool_gives_every_replica_its_own_process(self):
        backend = ProcessBackend()
        with QsRuntime("all", backend=backend) as rt:
            group = rt.sharded("cells", shards=3).create(Cell)
            workers = {id(backend._assignment[h.name]) for h in group.handlers}
            assert len(workers) == 3
            with group.separate() as g:
                g.broadcast("add", 2)
                assert g.gather("read") == [2, 2, 2]
