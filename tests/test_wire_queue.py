"""The wire-queue protocol core, driven without a socket — then both drivers.

:class:`~repro.queues.wire_queue.WireQueueCore` does no I/O, so its whole
contract is checkable with scripted replies: the frames a block puts on the
wire, the counters it bumps, and the failover arithmetic (what is replayed,
how many regenerated replies are discarded, what survives a block change).
The link is a real, never-attached :class:`ProcessBackend` — it owns the
journal the core writes — with a recording stand-in for the worker.

The last class runs one scripted block through the blocking and the
continuation driver against a real worker and demands identical counters:
the parity that inheritance used to give for free.
"""

from __future__ import annotations

import base64
import pickle
from types import SimpleNamespace

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.backends import ProcessBackend
from repro.backends.process import AsyncProcessPrivateQueue, ProcessPrivateQueue
from repro.errors import ScoopError
from repro.queues.private_queue import CallRequest
from repro.queues.wire_queue import RemoteCallError, RemoteHandle, WireQueueCore
from repro.util.counters import Counters

TARGET = RemoteHandle("h", 1, object)


def _double(obj, n):  # a module-level callable, so pickle can carry it
    return n * 2


class _RecordingWorker:
    """Stands in for a replacement worker's control channel."""

    def __init__(self) -> None:
        self.ops = []

    def request(self, op):
        self.ops.append(op)
        return {"ok": True}


@pytest.fixture
def link():
    return ProcessBackend()


@pytest.fixture
def core(link):
    handler = SimpleNamespace(name="h", counters=Counters())
    return WireQueueCore(link, handler, handler.counters)


def _call(n: int) -> CallRequest:
    return CallRequest(fn=None, args=(TARGET,), feature="add", call_args=(n,),
                       call_kwargs={}, payload_bytes=8)


def _release(calls_executed: int) -> dict:
    return {"kind": "release", "counters": {"calls_executed": calls_executed}}


def _checkpointed(reply: dict, ticket: int, state: bytes = b"state", oids=(1,)) -> dict:
    """``reply`` carrying a handler snapshot taken after block ``ticket``."""
    return {**reply, "checkpoint": {"ticket": ticket, "oids": list(oids), "state": state}}


def _kinds(frames) -> list:
    return [frame["kind"] for frame in frames]


def _block(core, ticket: int, calls: int = 1) -> None:
    """One whole block: ``calls`` commands, a consumed sync, the end."""
    core.open_block(ticket, None)
    for n in range(calls):
        core.call(_call(n))
    core.sync()
    core.classify(_release(calls))
    core.end()


class TestOrdinaryBlock:
    def test_frames_counters_and_replies(self, core, link):
        hello = core.hello("c-0")
        assert hello == {"kind": "hello", "handler": "h", "token": link.token, "client": "c-0"}

        core.open_block(ticket=0, block_id=7)
        first = core.call(_call(1))
        # the deferred open rides in front of the block's first data frame
        assert first == [{"kind": "open", "ticket": 0, "block": 7},
                         {"kind": "call", "oid": 1, "feature": "add", "args": [1], "kwargs": {}}]
        assert _kinds(core.call(_call(2))) == ["call"]
        assert core.sync() == [{"kind": "sync"}]
        core.sent(3)  # three frames left in one write

        assert core.classify(_release(2)) == (None, None)
        assert core.replies_seen == 1
        assert core.handler.counters.snapshot()["calls_executed"] == 2

        query_frames = core.query(CallRequest(fn=None, args=(TARGET,), feature="read",
                                              call_args=(), call_kwargs={}))
        assert query_frames == [{"kind": "query", "oid": 1, "feature": "read",
                                 "args": [], "kwargs": {}}]
        assert core.classify({"kind": "result", "value": 3}) == (3, None)
        assert _kinds(core.end()) == ["end"]

        snap = core.counters.snapshot()
        assert snap["pq_enqueues"] == 5  # 2 calls + sync + query + end
        assert snap["async_calls"] == 2
        assert snap["sync_roundtrips"] == 2
        assert snap["bytes_copied"] == 16
        assert snap["wire_frames_coalesced"] == 2
        # journal-before-feed: every data frame (never hello/open) is recorded
        assert _kinds(link.journal_for("h", 0)) == ["call", "call", "sync", "query", "end"]

    def test_invoke_payloads(self, core):
        core.open_block(0, None)
        closure = lambda obj: obj.read(1, k=2)  # noqa: E731 - what Client passes as fn
        by_name = core.invoke(TARGET, closure, feature="read", args=(1,), kwargs={"k": 2})[-1]
        assert by_name == {"kind": "invoke", "oid": 1, "feature": "read",
                           "args": [1], "kwargs": {"k": 2}}
        # a wrapper closure is unpicklable: the user's callable travels instead
        by_raw_fn = core.invoke(TARGET, closure, args=(3,), raw_fn=_double)[-1]
        assert by_raw_fn == {"kind": "invoke", "oid": 1, "fn": _double, "args": [3], "kwargs": {}}
        # no description at all (a statically pre-synced query): fn itself
        by_fn = core.invoke(TARGET, _double, args=(3,))[-1]
        assert by_fn == {"kind": "invoke", "oid": 1, "fn": _double, "args": [], "kwargs": {}}

    def test_error_replies_map_to_exceptions(self, core):
        core.open_block(0, None)
        boom = ValueError("boom")
        assert core.classify({"kind": "error", "error": boom, "message": "x"}) == (None, boom)
        value, error = core.classify({"kind": "error", "message": "ValueError('boom')"})
        assert value is None and isinstance(error, RemoteCallError)
        assert "boom" in str(error)

    def test_unfaithful_codec_refuses_callables_and_foreign_targets(self):
        handler = SimpleNamespace(name="h", counters=Counters())
        core = WireQueueCore(ProcessBackend(codec="json"), handler, handler.counters)
        core.open_block(0, None)
        with pytest.raises(ScoopError, match="'pickle' or 'bin'"):
            core.invoke(TARGET, _double)
        with pytest.raises(ScoopError, match="not adopted through it"):
            core.invoke(object(), _double, feature="read")


def _new_core() -> WireQueueCore:
    handler = SimpleNamespace(name="h", counters=Counters())
    return WireQueueCore(ProcessBackend(), handler, handler.counters)


def _read(core, **extra) -> list:
    return core.invoke(TARGET, lambda obj: obj.read(), feature="read", **extra)


class TestAQueryRidingItsSync:
    """An unsynced client-executed query is the ``invoke`` frame alone."""

    def test_one_frame_one_reply_and_the_syncs_accounting(self):
        two_trips, fused = _new_core(), _new_core()
        for core in (two_trips, fused):
            core.open_block(0, None)
            for n in range(3):
                core.call(_call(n))
        # what the wire used to carry: sync, release, invoke, result
        two_trips.sync()
        two_trips.classify(_release(3))
        body = _read(two_trips)
        assert _kinds(body) == ["invoke"]
        # and what it carries now: the same invoke frame, counted as the sync
        assert _read(fused, carries_sync=True) == body
        for core in (two_trips, fused):
            assert core.classify({"kind": "result", "value": 3,
                                  "counters": {"calls_executed": 3}}) == (3, None)
            core.end()
        assert fused.counters.snapshot() == two_trips.counters.snapshot()
        assert fused.counters.snapshot()["sync_roundtrips"] == 1
        assert (two_trips.replies_seen, fused.replies_seen) == (2, 1)
        assert _kinds(fused.link.journal_for("h", 0)) == ["call"] * 3 + ["invoke", "end"]
        assert _kinds(two_trips.link.journal_for("h", 0)) == ["call"] * 3 + ["sync", "invoke", "end"]

    def test_replay_before_and_after_the_reply(self, core):
        core.open_block(ticket=2, block_id=None)
        core.call(_call(1))
        _read(core, carries_sync=True)
        # the worker dies with the reply: the replayed block produces it anew
        assert _kinds(core.replay("c")) == ["hello", "open", "call", "invoke"]
        assert core.stale_replies == 0
        assert core.classify({"kind": "result", "value": 1}) == (1, None)
        # ... and dies again after it was consumed: now its twin is stale
        assert _kinds(core.replay("c")) == ["hello", "open", "call", "invoke"]
        assert core.stale_replies == 1
        assert core.classify({"kind": "result", "value": 1}) is None
        assert core.replies_seen == 1

    def test_an_abandoned_reply_is_not_the_next_blocks(self, core):
        core.open_block(0, None)
        _read(core, carries_sync=True)  # issued, never waited for
        assert (core.unread, core.stale_replies) == (1, 0)
        core.end()  # ... so it is abandoned with its block
        assert (core.unread, core.abandoned, core.stale_replies) == (0, 1, 1)
        core.open_block(1, None)  # the same cached connection
        _read(core, carries_sync=True)
        assert core.classify({"kind": "result", "value": "block 0"}) is None
        assert core.classify({"kind": "result", "value": "block 1"}) == ("block 1", None)
        assert (core.stale_replies, core.replies_seen, core.unread) == (0, 1, 0)

    def test_a_failover_at_the_end_frame_owes_the_abandoned_reply_again(self, core, link):
        core.open_block(0, None)
        _read(core, carries_sync=True)
        link._restore_handler(_RecordingWorker(), "h")  # someone else's failover: still open
        core.end()        # journaled after it; the dead worker is noticed as it is sent
        core.replay("c")  # so this client replays the block, which regenerates the reply
        assert core.stale_replies == 1  # re-derived, not stacked on the debt end() booked
        core.open_block(1, None)
        _read(core, carries_sync=True)
        assert core.classify({"kind": "result", "value": "block 0"}) is None
        assert core.classify({"kind": "result", "value": "block 1"}) == ("block 1", None)

    def test_an_abandoned_reply_that_died_with_its_worker_is_not_owed(self, core, link):
        core.open_block(0, None)
        _read(core, carries_sync=True)
        core.end()  # journaled: the failover this send runs into pre-files the block
        worker = _RecordingWorker()
        link._restore_handler(worker, "h")
        assert [_kinds(frames) for _, frames in worker.ops[-1]["blocks"]] == [["invoke", "end"]]
        assert _kinds(core.replay("c")) == ["hello"]
        # the restored block's replies go nowhere: nothing to discard
        assert (core.stale_replies, core.unread) == (0, 0)
        core.open_block(1, None)
        _read(core, carries_sync=True)
        assert core.classify({"kind": "result", "value": "block 1"}) == ("block 1", None)


class TestFailover:
    def test_replay_after_k_consumed_replies(self, core, link):
        core.open_block(ticket=4, block_id=9)
        core.call(_call(1))
        core.sync()
        assert core.classify(_release(1)) is not None
        core.call(_call(2))
        core.sync()
        assert core.classify(_release(2)) is not None
        core.call(_call(3))  # in flight when the worker dies
        assert core.replies_seen == 2

        replay = core.replay("c-0")
        assert _kinds(replay) == ["hello", "open", "call", "sync", "call", "sync", "call"]
        assert replay[1] == {"kind": "open", "ticket": 4, "block": 9}
        assert core.stale_replies == 2

        # the replacement re-executes the block: the two regenerated replies
        # are dropped, but their piggybacked counters still merge
        assert core.classify(_release(1)) is None
        assert core.classify(_release(7)) is None
        assert core.handler.counters.snapshot()["calls_executed"] == 7
        assert (core.stale_replies, core.replies_seen) == (0, 2)
        core.sync()
        assert core.classify(_release(8)) == (None, None)
        assert core.replies_seen == 3

    def test_replay_sends_a_deferred_open_only_once(self, core):
        core.open_block(ticket=1, block_id=None)  # reserved, nothing issued yet
        assert _kinds(core.replay("c")) == ["hello", "open"]
        assert _kinds(core.call(_call(1))) == ["call"]

    def test_a_second_failover_does_not_stack_the_debt(self, core):
        core.open_block(0, None)
        core.sync()
        core.classify(_release(0))
        core.replay("c")
        assert core.stale_replies == 1
        # the replacement dies before regenerating anything: the replies
        # pending on its stream died with it
        core.replay("c")
        assert core.stale_replies == 1

    def test_between_blocks_the_restore_has_the_block_and_nothing_is_replayed(self, core, link):
        core.open_block(ticket=0, block_id=None)
        core.call(_call(1))
        core.sync()
        core.classify(_release(1))
        core.end()
        # the worker dies while the queue idles in its client's cache; the
        # failover pre-files the ended block on the replacement ...
        worker = _RecordingWorker()
        link._restore_handler(worker, "h")
        restore = worker.ops[-1]
        assert restore["op"] == "restore"
        assert [(ticket, _kinds(frames)) for ticket, frames in restore["blocks"]] == [
            (0, ["call", "sync", "end"])]
        # ... so the queue only says hello again, and expects no stale reply
        # (the restored block's replies go nowhere)
        assert _kinds(core.replay("c")) == ["hello"]
        assert core.stale_replies == 0

    def test_a_block_that_ended_after_the_restore_is_replayed_by_its_client(self, core, link):
        core.open_block(ticket=0, block_id=None)
        core.call(_call(1))
        worker = _RecordingWorker()
        link._restore_handler(worker, "h")  # someone else's failover: still open
        assert all(op["op"] != "restore" for op in worker.ops)
        core.end()  # journaled after the restore's snapshot
        assert _kinds(core.replay("c")) == ["hello", "open", "call", "end"]

    def test_a_queue_that_never_opened_a_block_only_says_hello(self, core):
        assert _kinds(core.replay("c")) == ["hello"]

    def test_stale_debt_survives_a_block_change(self, core):
        core.open_block(ticket=0, block_id=None)
        for n in (1, 2):
            core.sync()
            core.classify(_release(n))
        core.replay("c")
        assert core.stale_replies == 2
        assert core.classify(_release(1)) is None  # one regenerated reply drained
        core.end()
        core.open_block(ticket=1, block_id=None)
        # the other one straddles the block change: it belongs to the
        # connection, not to the block
        assert (core.stale_replies, core.replies_seen) == (1, 0)
        core.sync()
        assert core.classify(_release(2)) is None
        assert core.classify(_release(2)) == (None, None)
        assert core.replies_seen == 1


class TestCheckpoints:
    """A reply may carry a handler snapshot: the journal below it goes."""

    def test_a_checkpoint_truncates_the_journal_and_counts(self, core, link):
        for ticket in range(3):
            _block(core, ticket, calls=2)
        assert link.journal_size() == (3, 12)  # 2 calls + sync + end, each
        core.open_block(3, None)
        core.sync()
        assert core.classify(_checkpointed(_release(6), ticket=1)) == (None, None)
        assert link.journal_size() == (2, 5)   # block 2, and the sync of block 3
        snap = core.handler.counters.snapshot()
        assert (snap["journal_checkpoints"], snap["journal_frames_dropped"]) == (1, 8)

    def test_a_checkpoint_on_a_stale_reply_still_truncates(self, core, link):
        _block(core, 0)
        core.open_block(1, None)
        core.sync()
        core.classify(_release(1))
        core.replay("c")
        assert core.stale_replies == 1
        assert core.classify(_checkpointed(_release(1), ticket=0)) is None  # stale
        assert link.journal_size() == (1, 1)
        assert link.journal_for("h", 0) is None

    def test_an_older_checkpoint_arriving_late_is_ignored(self, core, link):
        for ticket in range(3):
            _block(core, ticket)
        core.open_block(3, None)
        core.classify(_checkpointed(_release(3), ticket=2, state=b"newer"))
        # the reply of another connection, processed later, carries an older one
        core.classify(_checkpointed(_release(3), ticket=0, state=b"older"))
        assert link._checkpoints["h"]["state"] == b"newer"
        assert core.handler.counters.snapshot()["journal_checkpoints"] == 1

    def test_a_block_at_or_below_the_watermark_is_not_replayed(self, core, link):
        core.open_block(0, None)
        core.sync()
        core.classify(_release(0))
        core.end()
        # the queue idles in its client's cache; another connection's reply
        # brings the checkpoint that covers its last block
        other = WireQueueCore(link, core.handler, core.counters)
        other.open_block(1, None)
        other.classify(_checkpointed(_release(0), ticket=0))
        assert link.journal_for("h", 0) is None
        assert _kinds(core.replay("c")) == ["hello"]
        assert core.stale_replies == 0

    def test_a_block_above_the_watermark_replays_in_full(self, core, link):
        _block(core, 0)
        core.open_block(1, None)
        core.call(_call(1))
        core.sync()
        core.classify(_checkpointed(_release(2), ticket=0))
        core.call(_call(2))
        assert _kinds(core.replay("c")) == ["hello", "open", "call", "sync", "call"]
        assert core.stale_replies == 1

    def test_the_restore_is_the_last_checkpoint_plus_the_tail(self, core, link):
        link._hosted["h"] = {1: b"adopt-1", 2: pickle.dumps("adopted since")}
        for ticket in range(3):
            _block(core, ticket)
        core.open_block(3, None)
        core.call(_call(9))  # in flight: its client replays it
        core.classify(_checkpointed(_release(2), ticket=1, state=b"objects+counters"))
        worker = _RecordingWorker()
        link._restore_handler(worker, "h")
        created, hosted, restored = worker.ops
        # the state travels as the bytes the worker pickled, not re-pickled
        assert created == {"op": "handler", "name": "h",
                           "checkpoint": {"ticket": 1, "state": b"objects+counters"}}
        # oid 1 is in the checkpoint; only the object adopted since is hosted
        assert (hosted["op"], hosted["oid"], hosted["obj"]) == ("host", 2, "adopted since")
        assert [ticket for ticket, _ in restored["blocks"]] == [2]

    def test_a_text_codec_carries_the_state_base64_encoded(self):
        link = ProcessBackend(codec="json")
        handler = SimpleNamespace(name="h", counters=Counters())
        core = WireQueueCore(link, handler, handler.counters)
        core.open_block(0, None)
        core.classify(_checkpointed(_release(0), ticket=0,
                                    state=base64.b64encode(b"\x80\x05raw").decode("ascii")))
        assert link._checkpoints["h"]["state"] == b"\x80\x05raw"


class Account(SeparateObject):
    def __init__(self) -> None:
        self.balance = 0

    @command
    def credit(self, amount: int) -> None:
        self.balance += amount

    @query
    def read(self) -> int:
        return self.balance


#: 40 commands cross the 32-frame coalescing threshold once
_BURST = 40


def _run_block(level: str, coroutine: bool) -> dict:
    backend = ProcessBackend(processes=1, loops=1)
    seen = {}
    with QsRuntime(level, backend=backend) as rt:
        ref = rt.new_handler("acct").create(Account)

        def thread_client() -> None:
            with rt.separate(ref) as acc:
                seen["driver"] = type(rt.client().queue_for(ref.handler))
                for _ in range(_BURST):
                    acc.credit(1)
                seen["first"] = acc.read()
                acc.credit(2)
                seen["second"] = acc.read()
                seen["third"] = acc.read()
                _observe_wire(rt.client().queue_for(ref.handler))

        async def coroutine_client() -> None:
            async with rt.aclient().separate(ref) as acc:
                seen["driver"] = type(rt.aclient()._client.queue_for(ref.handler))
                for _ in range(_BURST):
                    await acc.credit(1)
                seen["first"] = await acc.read()
                await acc.credit(2)
                seen["second"] = await acc.read()
                seen["third"] = await acc.read()
                _observe_wire(rt.aclient()._client.queue_for(ref.handler))

        def _observe_wire(queue) -> None:
            seen["replies"] = queue.core.replies_seen
            seen["journal"] = _kinds(backend.journal_for("acct", queue.core.ticket))

        rt.client(coroutine_client if coroutine else thread_client)
        rt.join_clients()
        rt.shutdown()
        seen["counters"] = {k: v for k, v in rt.stats().as_dict().items() if v}
    return seen


class TestBothDriversAgainstARealWorker:
    @pytest.mark.parametrize("level", ["all", "qoq"])
    def test_identical_results_and_counter_snapshots(self, level):
        # "all": client-executed queries (the first two ride their own sync,
        # the third finds the handler parked); "qoq": packaged queries
        blocking = _run_block(level, coroutine=False)
        continuation = _run_block(level, coroutine=True)
        assert blocking.pop("driver") is ProcessPrivateQueue
        assert continuation.pop("driver") is AsyncProcessPrivateQueue
        assert (blocking["first"], blocking["second"], blocking["third"]) == (40, 42, 42)
        assert continuation == blocking
        # one reply per query, synced or not, and no sync frame on the wire
        assert blocking["replies"] == 3
        body = "invoke" if level == "all" else "query"
        assert blocking["journal"] == ["call"] * _BURST + [body, "call", body, body]
        counters = blocking["counters"]
        assert counters["calls_executed"] >= _BURST + 1
        assert counters["wire_frames_coalesced"] >= 31
