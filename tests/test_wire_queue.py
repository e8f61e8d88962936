"""The wire-queue protocol core and the handler journal, driven without a socket.

:class:`~repro.queues.wire_queue.WireQueueCore` and
:class:`~repro.queues.wire_queue.HandlerJournal` do no I/O, so their whole
contract is checkable with scripted replies: the frames a block puts on the
wire, the counters it bumps, and the failover arithmetic (what is replayed,
what a replacement worker is restored from, how many regenerated replies
are discarded, what survives a block change).  The link is a namespace with
the three names a core reads from its backend.

The last class runs one scripted block through the blocking and the
continuation driver against a real worker and demands identical counters:
the parity that inheritance used to give for free.
"""

from __future__ import annotations

import base64
import pickle
import threading
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import QsRuntime, SeparateObject, command, query
from repro.backends import ProcessBackend
from repro.backends.process import AsyncProcessPrivateQueue, ProcessPrivateQueue
from repro.errors import ScoopError
from repro.queues.private_queue import CallRequest
from repro.queues.wire_queue import (
    MAX_BURST_CALLS, HandlerJournal, RemoteCallError, RemoteHandle, WireQueueCore)
from repro.util.counters import Counters

TARGET = RemoteHandle("h", 1, object)


def _double(obj, n):  # a module-level callable, so pickle can carry it
    return n * 2


def _link(codec: str = "pickle") -> SimpleNamespace:
    """What a core reads from its backend: ``token``, ``codec`` and the merge."""
    seen = {}

    def merge_worker_counters(handler, values) -> None:  # the backend's high-water merge
        for key, value in values.items():
            if value > seen.get(key, 0):
                handler.counters.add(key, value - seen.get(key, 0))
                seen[key] = value

    return SimpleNamespace(token="t0k3n", codec=codec,
                           merge_worker_counters=merge_worker_counters)


def _new_core(link=None, journal=None) -> WireQueueCore:
    handler = SimpleNamespace(name="h", counters=Counters())
    return WireQueueCore(link if link is not None else _link(), handler, handler.counters,
                         journal if journal is not None else HandlerJournal())


@pytest.fixture
def link():
    return _link()


@pytest.fixture
def journal():
    return HandlerJournal()


@pytest.fixture
def core(link, journal):
    return _new_core(link, journal)


def _call(n: int) -> CallRequest:
    return CallRequest("add", TARGET, (n,), {}, payload_bytes=8)


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
    def test_frames_counters_and_replies(self, core, link, journal):
        hello = core.hello("c-0")
        assert hello == {"kind": "hello", "handler": "h", "token": link.token, "client": "c-0"}

        core.open_block(ticket=0, block_id=7)
        # a call joins the open burst: nothing is handed out, nothing counted
        assert core.call(_call(1)) == []
        assert core.call(_call(2)) == []
        assert core.counters.snapshot()["async_calls"] == 0
        frames = core.sync()
        # the deferred open rides in front of the block's first data frame,
        # and the burst in front of the frame that took it out
        assert frames == [{"kind": "open", "ticket": 0, "block": 7},
                          {"kind": "calls", "calls": [[1, "add", [1], {}],
                                                      [1, "add", [2], {}]]},
                          {"kind": "sync"}]
        core.sent(frames)  # four requests left in one write

        assert core.classify(_release(2)) == (None, None)
        assert core.replies_seen == 1
        assert core.handler.counters.snapshot()["calls_executed"] == 2

        query_frames = core.query(CallRequest("read", TARGET))
        assert query_frames == [{"kind": "query", "oid": 1, "fn": "read",
                                 "args": [], "kwargs": {}}]
        assert core.classify({"kind": "result", "value": 3}) == (3, None)
        assert _kinds(core.end()) == ["end"]

        snap = core.counters.snapshot()
        assert snap["pq_enqueues"] == 5  # 2 calls + sync + query + end
        assert snap["async_calls"] == 2
        assert snap["sync_roundtrips"] == 2
        assert snap["bytes_copied"] == 16
        assert snap["wire_frames_coalesced"] == 3
        # journal-before-feed: every data frame (never hello/open) is recorded
        assert _kinds(journal.tail(0)) == ["calls", "sync", "query", "end"]

    def test_a_full_burst_leaves_at_once_and_end_takes_out_the_rest(self, core, journal):
        core.open_block(ticket=0, block_id=None)
        handed_out = [core.call(_call(n)) for n in range(MAX_BURST_CALLS + 5)]
        full = handed_out.pop(MAX_BURST_CALLS - 1)
        assert handed_out == [[]] * (MAX_BURST_CALLS + 4)
        assert _kinds(full) == ["open", "calls"]
        assert [entry[2] for entry in full[1]["calls"]] == [[n] for n in range(MAX_BURST_CALLS)]
        # counted once, at take-out, and journaled before it is handed out
        assert core.counters.snapshot()["async_calls"] == MAX_BURST_CALLS
        assert journal.size() == (1, 1)
        core.sent(full)
        assert core.counters.snapshot()["wire_frames_coalesced"] == MAX_BURST_CALLS
        rest = core.end()
        assert _kinds(rest) == ["calls", "end"]
        assert len(rest[0]["calls"]) == 5
        snap = core.counters.snapshot()
        assert (snap["async_calls"], snap["pq_enqueues"]) == (MAX_BURST_CALLS + 5,
                                                               MAX_BURST_CALLS + 6)

    def test_a_request_the_codec_refuses_raises_and_leaves_no_trace(self):
        # nothing of it is journaled, counted or owed a reply: the block goes
        # on as if it had never been made
        refusals = (lambda core, bad: core.call(CallRequest("add", TARGET, ([bad],), {})),
                    lambda core, bad: core.query(CallRequest("echo", TARGET, (bad,))),
                    lambda core, bad: core.invoke(TARGET, "echo", (bad,), {}, True),
                    lambda core, bad: core.invoke(TARGET, lambda obj: obj, (), {}))
        for codec, bad in (("json", (1, 2)), ("pickle", threading.Lock()),
                           ("bin", threading.Lock())):
            for refused in refusals:
                core = _new_core(_link(codec))
                core.open_block(0, None)
                core.call(_call(1))
                with pytest.raises((ScoopError, TypeError, AttributeError,
                                    pickle.PicklingError)):
                    refused(core, bad)
                assert (core.unread, core.journal.size()) == (0, (0, 0)), codec
                assert core.counters.snapshot().get("pq_enqueues", 0) == 0, codec
                core.call(_call(2))
                frames = core.end()
                assert _kinds(frames) == ["open", "calls", "end"], codec
                assert [entry[2] for entry in frames[1]["calls"]] == [[1], [2]], codec
                assert (core.unread, core.stale_replies) == (0, 0), codec
                assert core.counters.snapshot()["async_calls"] == 2

    def test_invoke_payloads(self, core):
        core.open_block(0, None)
        # a name and a callable travel alike, each with its arguments
        by_name = core.invoke(TARGET, "read", (1,), {"k": 2})[-1]
        assert by_name == {"kind": "invoke", "oid": 1, "fn": "read",
                           "args": [1], "kwargs": {"k": 2}}
        by_fn = core.invoke(TARGET, _double, (3,), {})[-1]
        assert by_fn == {"kind": "invoke", "oid": 1, "fn": _double, "args": [3], "kwargs": {}}
        # a statically pre-synced query's body takes the target alone
        bare = core.invoke(TARGET, _double, (), {})[-1]
        assert bare == {"kind": "invoke", "oid": 1, "fn": _double, "args": [], "kwargs": {}}

    def test_error_replies_map_to_exceptions(self, core):
        core.open_block(0, None)
        boom = ValueError("boom")
        assert core.classify({"kind": "error", "error": boom, "message": "x"}) == (None, boom)
        value, error = core.classify({"kind": "error", "message": "ValueError('boom')"})
        assert value is None and isinstance(error, RemoteCallError)
        assert "boom" in str(error)

    def test_unfaithful_codec_refuses_callables_and_foreign_targets(self):
        core = _new_core(_link("json"))
        core.open_block(0, None)
        with pytest.raises(ScoopError, match="'pickle' or 'bin'"):
            core.invoke(TARGET, _double, (), {})
        with pytest.raises(ScoopError, match="not adopted through it"):
            core.invoke(object(), "read", (), {})


def _read(core, **extra) -> list:
    return core.invoke(TARGET, "read", (), {}, **extra)


class TestAQueryRidingItsSync:
    """An unsynced client-executed query is the ``invoke`` frame alone."""

    def test_one_frame_one_reply_and_the_syncs_accounting(self):
        two_trips, fused = _new_core(), _new_core()
        for core in (two_trips, fused):
            core.open_block(0, None)
            for n in range(3):
                core.call(_call(n))
        # what the wire used to carry: sync, release, invoke, result
        assert _kinds(two_trips.sync()) == ["open", "calls", "sync"]
        two_trips.classify(_release(3))
        body = _read(two_trips)
        assert _kinds(body) == ["invoke"]
        # and what it carries now: the same invoke frame, counted as the sync
        fused_frames = _read(fused, carries_sync=True)
        assert _kinds(fused_frames) == ["open", "calls", "invoke"]
        assert fused_frames[-1] == body[0]
        for core in (two_trips, fused):
            assert core.classify({"kind": "result", "value": 3,
                                  "counters": {"calls_executed": 3}}) == (3, None)
            core.end()
        assert fused.counters.snapshot() == two_trips.counters.snapshot()
        assert fused.counters.snapshot()["sync_roundtrips"] == 1
        assert (two_trips.replies_seen, fused.replies_seen) == (2, 1)
        assert _kinds(fused.journal.tail(0)) == ["calls", "invoke", "end"]
        assert _kinds(two_trips.journal.tail(0)) == ["calls", "sync", "invoke", "end"]

    def test_replay_before_and_after_the_reply(self, core):
        core.open_block(ticket=2, block_id=None)
        core.call(_call(1))
        _read(core, carries_sync=True)
        # the worker dies with the reply: the replayed block produces it anew
        assert _kinds(core.replay("c")) == ["hello", "open", "calls", "invoke"]
        assert core.stale_replies == 0
        assert core.classify({"kind": "result", "value": 1}) == (1, None)
        # ... and dies again after it was consumed: now its twin is stale
        assert _kinds(core.replay("c")) == ["hello", "open", "calls", "invoke"]
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

    def test_a_failover_at_the_end_frame_owes_the_abandoned_reply_again(self, core, journal):
        core.open_block(0, None)
        _read(core, carries_sync=True)
        assert journal.take_restore()[2] == []  # someone else's failover: still open
        core.end()        # journaled after it; the dead worker is noticed as it is sent
        core.replay("c")  # so this client replays the block, which regenerates the reply
        assert core.stale_replies == 1  # re-derived, not stacked on the debt end() booked
        core.open_block(1, None)
        _read(core, carries_sync=True)
        assert core.classify({"kind": "result", "value": "block 0"}) is None
        assert core.classify({"kind": "result", "value": "block 1"}) == ("block 1", None)

    def test_an_abandoned_reply_that_died_with_its_worker_is_not_owed(self, core, journal):
        core.open_block(0, None)
        _read(core, carries_sync=True)
        core.end()  # journaled: the failover this send runs into pre-files the block
        _, _, blocks = journal.take_restore()
        assert [_kinds(frames) for _, frames in blocks] == [["invoke", "end"]]
        assert _kinds(core.replay("c")) == ["hello"]
        # the restored block's replies go nowhere: nothing to discard
        assert (core.stale_replies, core.unread) == (0, 0)
        core.open_block(1, None)
        _read(core, carries_sync=True)
        assert core.classify({"kind": "result", "value": "block 1"}) == ("block 1", None)


class TestFailover:
    def test_replay_after_k_consumed_replies(self, core):
        core.open_block(ticket=4, block_id=9)
        core.call(_call(1))
        core.sync()
        assert core.classify(_release(1)) is not None
        core.call(_call(2))
        core.sync()
        assert core.classify(_release(2)) is not None
        core.call(_call(3))  # still in the open burst when the worker dies
        assert core.replies_seen == 2

        replay = core.replay("c-0")
        assert _kinds(replay) == ["hello", "open", "calls", "sync", "calls", "sync"]
        assert replay[1] == {"kind": "open", "ticket": 4, "block": 9}
        assert core.stale_replies == 2

        # the replacement re-executes the block: the two regenerated replies
        # are dropped, but their piggybacked counters still merge
        assert core.classify(_release(1)) is None
        assert core.classify(_release(7)) is None
        assert core.handler.counters.snapshot()["calls_executed"] == 7
        assert (core.stale_replies, core.replies_seen) == (0, 2)
        # the open burst was neither journaled nor sent: it survives the
        # replay and leaves with the block's next frame
        frames = core.sync()
        assert _kinds(frames) == ["calls", "sync"]
        assert frames[0]["calls"] == [[1, "add", [3], {}]]
        assert core.classify(_release(8)) == (None, None)
        assert core.replies_seen == 3

    def test_replay_sends_a_deferred_open_only_once(self, core):
        core.open_block(ticket=1, block_id=None)  # reserved, nothing issued yet
        assert _kinds(core.replay("c")) == ["hello", "open"]
        assert core.call(_call(1)) == []
        assert _kinds(core.end()) == ["calls", "end"]

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

    def test_between_blocks_the_restore_has_the_block_and_nothing_is_replayed(self, core, journal):
        core.open_block(ticket=0, block_id=None)
        core.call(_call(1))
        core.sync()
        core.classify(_release(1))
        core.end()
        # the worker dies while the queue idles in its client's cache; the
        # failover pre-files the ended block on the replacement ...
        _, _, blocks = journal.take_restore()
        assert [(ticket, _kinds(frames)) for ticket, frames in blocks] == [
            (0, ["calls", "sync", "end"])]
        # ... so the queue only says hello again, and expects no stale reply
        # (the restored block's replies go nowhere)
        assert _kinds(core.replay("c")) == ["hello"]
        assert core.stale_replies == 0

    def test_a_block_that_ended_after_the_restore_is_replayed_by_its_client(self, core, journal):
        core.open_block(ticket=0, block_id=None)
        core.call(_call(1))
        assert journal.take_restore()[2] == []  # someone else's failover: still open
        core.end()  # journaled after the restore's snapshot
        assert _kinds(core.replay("c")) == ["hello", "open", "calls", "end"]

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

    def test_a_checkpoint_truncates_the_journal_and_counts(self, core, journal):
        for ticket in range(3):
            _block(core, ticket, calls=2)
        assert journal.size() == (3, 9)  # a burst of 2 calls + sync + end, each
        core.open_block(3, None)
        core.sync()
        assert core.classify(_checkpointed(_release(6), ticket=1)) == (None, None)
        assert journal.size() == (2, 4)   # block 2, and the sync of block 3
        snap = core.handler.counters.snapshot()
        assert (snap["journal_checkpoints"], snap["journal_frames_dropped"]) == (1, 6)

    def test_a_checkpoint_on_a_stale_reply_still_truncates(self, core, journal):
        _block(core, 0)
        core.open_block(1, None)
        core.sync()
        core.classify(_release(1))
        core.replay("c")
        assert core.stale_replies == 1
        assert core.classify(_checkpointed(_release(1), ticket=0)) is None  # stale
        assert journal.size() == (1, 1)
        assert journal.tail(0) is None

    def test_an_older_checkpoint_arriving_late_is_ignored(self, core, journal):
        for ticket in range(3):
            _block(core, ticket)
        core.open_block(3, None)
        core.classify(_checkpointed(_release(3), ticket=2, state=b"newer"))
        # the reply of another connection, processed later, carries an older one
        core.classify(_checkpointed(_release(3), ticket=0, state=b"older"))
        assert journal.take_restore()[0]["state"] == b"newer"
        assert core.handler.counters.snapshot()["journal_checkpoints"] == 1

    def test_a_block_at_or_below_the_watermark_is_not_replayed(self, core, link, journal):
        core.open_block(0, None)
        core.sync()
        core.classify(_release(0))
        core.end()
        # the queue idles in its client's cache; another connection's reply
        # brings the checkpoint that covers its last block
        other = WireQueueCore(link, core.handler, core.counters, journal)
        other.open_block(1, None)
        other.classify(_checkpointed(_release(0), ticket=0))
        assert journal.tail(0) is None
        assert _kinds(core.replay("c")) == ["hello"]
        assert core.stale_replies == 0

    def test_a_block_above_the_watermark_replays_in_full(self, core):
        _block(core, 0)
        core.open_block(1, None)
        core.call(_call(1))
        core.sync()
        core.classify(_checkpointed(_release(2), ticket=0))
        core.call(_call(2))  # in the open burst: its client sends it later
        assert _kinds(core.replay("c")) == ["hello", "open", "calls", "sync"]
        assert core.stale_replies == 1

    def test_the_restore_is_the_last_checkpoint_plus_the_tail(self, core, journal):
        journal.adopted(1, b"adopt-1")
        journal.adopted(2, b"adopted since")
        for ticket in range(3):
            _block(core, ticket)
        core.open_block(3, None)
        core.call(_call(9))
        core.sync()  # in flight: its client replays it
        core.classify(_checkpointed(_release(2), ticket=1, state=b"objects+counters"))
        # the worker hosts before the parent records: a checkpoint may
        # already cover an object whose adopt pickle arrives now
        journal.adopted(1, b"recorded late")
        checkpoint, adopted, blocks = journal.take_restore()
        # the state stays the bytes the worker pickled, to be sent as they are
        assert (checkpoint["ticket"], checkpoint["state"]) == (1, b"objects+counters")
        # oid 1 is in the checkpoint; only the object adopted since is hosted
        assert adopted == [(2, b"adopted since")]
        assert [ticket for ticket, _ in blocks] == [2]
        assert _kinds(core.replay("c")) == ["hello", "open", "calls", "sync"]

    def test_a_text_codec_carries_the_state_base64_encoded(self, journal):
        core = _new_core(_link("json"), journal)
        core.open_block(0, None)
        core.classify(_checkpointed(_release(0), ticket=0,
                                    state=base64.b64encode(b"\x80\x05raw").decode("ascii")))
        assert journal.take_restore()[0]["state"] == b"\x80\x05raw"


#: what a handler's journal sees: frames of a few blocks, checkpoints at any
#: ticket (in any order, as replies on different connections deliver them)
#: and failovers taking the restore
_JOURNAL_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(0, 5), st.sampled_from(["calls", "sync", "end"])),
    st.tuples(st.just("checkpoint"), st.integers(0, 5)),
    st.just(("restore",)),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(ops=_JOURNAL_OPS)
def test_the_journal_keeps_exactly_the_frames_above_the_watermark(ops):
    """``tail(t)`` is ``None`` exactly when ``t`` is at or below the newest
    checkpoint's ticket or was pre-filed by a restore, and ``size()`` counts
    exactly the frames above that ticket, whatever the interleaving."""
    journal = HandlerJournal()
    watermark, frames, prefiled = -1, {}, set()
    for op in ops:
        if op[0] == "append":
            _, ticket, kind = op
            journal.extend(ticket, [{"kind": kind}])
            if ticket > watermark:
                frames.setdefault(ticket, []).append(kind)
        elif op[0] == "checkpoint":
            dropped = journal.checkpoint(op[1], (), b"")
            if op[1] <= watermark:
                assert dropped is None
            else:
                watermark = op[1]
                covered = [t for t in frames if t <= watermark]
                assert dropped == sum(len(frames.pop(t)) for t in covered)
        else:
            _, _, blocks = journal.take_restore()
            restored = sorted(t for t, kinds in frames.items() if kinds[-1] == "end")
            assert [(t, _kinds(fs)) for t, fs in blocks] == [(t, frames[t]) for t in restored]
            prefiled.update(restored)
        for ticket in range(6):
            tail = journal.tail(ticket)
            assert (tail is None) == (ticket <= watermark or ticket in prefiled)
            if tail is not None:
                assert _kinds(tail) == frames.get(ticket, [])
        assert journal.size() == (len(frames), sum(len(fs) for fs in frames.values()))


class _ModelWorker:
    """A worker as the failover protocol sees it: it executes what reaches
    it in order, answers each answered frame, and between two blocks holds
    the state a checkpoint would snapshot."""

    def __init__(self, checkpoint=None) -> None:
        self.executed = list(checkpoint["state"]) if checkpoint else []
        self.served = checkpoint["ticket"] if checkpoint else -1
        self.between_blocks = list(self.executed)  # the state after block ``served``
        self.ticket = None
        self.replies = deque()

    def receive(self, frames, answer: bool = True) -> None:
        for frame in frames:
            kind = frame["kind"]
            if kind == "open":
                self.ticket = frame["ticket"]
            elif kind == "calls":
                self.executed.extend(entry[2][0] for entry in frame["calls"])
            elif kind == "end":
                self.served, self.between_blocks = self.ticket, list(self.executed)
            elif kind != "hello" and answer:
                self.replies.append({"kind": "release" if kind == "sync" else "result",
                                     "value": len(self.executed)})


#: one client's blocks: bursts of 0-100 calls (across the 32-call limit),
#: syncs, query bodies and ends — each send possibly lost with a dying
#: worker — interleaved with checkpoints and idle worker deaths
_WIRE_OPS = st.lists(st.one_of(
    st.tuples(st.just("calls"), st.integers(0, 100), st.booleans()),
    st.tuples(st.sampled_from(["sync", "invoke", "end"]), st.booleans()),
    st.just(("checkpoint",)),
    st.just(("kill",)),
), max_size=25)


@settings(max_examples=200, deadline=None)
@given(ops=_WIRE_OPS)
def test_what_was_sent_and_replayed_executes_each_call_once_in_log_order(ops):
    """Expanding every ``calls`` frame a worker received — sent, pre-filed
    by a restore or replayed by the client — executes each logged call
    exactly once, in log order, whatever fails over when; and at every
    block end the counters are exactly what the block logged."""
    journal = HandlerJournal()
    core = _new_core(journal=journal)
    worker = _ModelWorker()
    logged, expected = [], {"pq_enqueues": 0, "async_calls": 0, "sync_roundtrips": 0}
    ticket, in_block = -1, False

    def fail_over() -> None:
        nonlocal worker
        checkpoint, _, blocks = journal.take_restore()
        worker = _ModelWorker(checkpoint)
        for block, frames in blocks:  # pre-filed; their replies go nowhere
            worker.receive([{"kind": "open", "ticket": block}, *frames], answer=False)
        worker.receive(core.replay("c"))

    def send(frames, lost: bool) -> None:
        if not frames:
            return
        if lost:  # the write fails: the worker died with these frames
            fail_over()
        else:
            worker.receive(frames)
            core.sent(frames)

    def wait() -> None:
        while core.classify(worker.replies.popleft()) is None:
            pass

    for op in ops:
        if op[0] == "checkpoint":
            if worker.served >= 0:  # as a reply on another connection installs it
                journal.checkpoint(worker.served, (), worker.between_blocks)
            continue
        if op[0] == "kill":
            fail_over()
            continue
        if not in_block:
            ticket, in_block = ticket + 1, True
            core.open_block(ticket, None)
        kind, lost = op[0], op[-1]
        if kind == "calls":
            for _ in range(op[1]):
                logged.append(len(logged))
                frames = core.call(_call(logged[-1]))
                send(frames, lost)
                lost = lost and not frames  # the op's first write is the one lost
            expected["pq_enqueues"] += op[1]
            expected["async_calls"] += op[1]
        elif kind == "end":
            send(core.end(), lost)
            in_block = False
            expected["pq_enqueues"] += 1
            assert worker.executed == logged
            snap = core.counters.snapshot()
            assert {name: snap[name] for name in expected} == expected
            assert snap["bytes_copied"] == 8 * len(logged)
        else:
            send(core.sync() if kind == "sync" else _read(core, carries_sync=True), lost)
            wait()
            expected["pq_enqueues"] += 1
            expected["sync_roundtrips"] += 1
    if in_block:
        send(core.end(), False)
    assert worker.executed == logged


class Account(SeparateObject):
    def __init__(self) -> None:
        self.balance = 0

    @command
    def credit(self, amount: int) -> None:
        self.balance += amount

    @query
    def read(self) -> int:
        return self.balance


#: 40 commands cross the 32-call burst limit once
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
            seen["journal"] = _kinds(queue.core.journal.tail(queue.core.ticket))

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
        # a full burst, then the rest of the 40 in front of the first query
        assert blocking["journal"] == ["calls", "calls", body, "calls", body, body]
        counters = blocking["counters"]
        assert counters["calls_executed"] >= _BURST + 1
        # open + 32 calls, then 8 calls + the query, then 1 call + the query
        assert counters["wire_frames_coalesced"] == 32 + 8 + 1
