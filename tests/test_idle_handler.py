"""An idle handler is already synced: query-only blocks that skip the hand-off.

A single-handler block files its in-memory private queue with its first
request.  When a query (or ``sync_()``) finds the queue unfiled and the
block's ticket equal to the handler's ``served`` watermark, the handler has
served every earlier block and waits for this one, so the body runs on the
client with no SYNC round trip; ending such a block passes the ticket on.
These tests pin the rule and its races on every in-memory backend: a busy
handler is still synced with, ending an inline block wakes a handler that
already holds the next block, shutdown lets go of a block that was never
filed, and many clients mixing both kinds of block keep the guarantees.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.core.guarantees import check_runtime

IN_MEMORY = ("threads", "sim", "async")


class Cell(SeparateObject):
    def __init__(self) -> None:
        self.value = 0

    @command
    def hold(self, entered, gate) -> None:
        """Sit in the handler until ``gate`` is set, then leave a mark."""
        entered.set()
        gate.wait()
        self.value = 1

    @command
    def bump(self) -> None:
        self.value += 1

    @query
    def read(self) -> int:
        return self.value


class Ledger(SeparateObject):
    def __init__(self) -> None:
        self.entries = {}

    @command
    def push(self, client: int, item: int) -> None:
        self.entries.setdefault(client, []).append(item)

    @query
    def count(self, client: int) -> int:
        return len(self.entries.get(client, ()))

    @query
    def last(self, client: int):
        return self.entries.get(client, [None])[-1]


def _until(rt, condition, limit: float = 5.0) -> None:
    """Poll ``condition`` on the backend's clock (virtual time on sim)."""
    waited = 0.0
    while not condition():
        assert waited < limit, "the awaited state never came about"
        rt.backend.sleep(0.001)
        waited += 0.001


def _read_block(rt, ref) -> int:
    with rt.separate(ref) as cell:
        return cell.read()


@pytest.mark.parametrize("backend", IN_MEMORY + ("process",))
def test_query_only_blocks_make_no_round_trip_in_memory(backend):
    with QsRuntime("all", backend=backend) as rt:
        ref = rt.new_handler("cell").create(Cell)
        handler = rt.handler("cell")
        depths = []
        for _ in range(5):
            assert _read_block(rt, ref) == 0
            depths.append(len(handler.qoq))
        stats = rt.stats()
    counts = tuple(stats[name] for name in
                   ("reservations", "qoq_enqueues", "sync_roundtrips", "syncs_elided"))
    if backend == "process":
        # the worker's watermark is not visible to the parent: unchanged
        assert counts == (5, 5, 5, 0)
    else:
        # nothing filed, nothing queued: the handler never saw the blocks
        assert counts == (5, 0, 0, 5)
        assert depths == [0] * 5


@pytest.mark.parametrize("backend", IN_MEMORY)
def test_a_block_that_logs_a_command_files_and_syncs(backend):
    with QsRuntime("all", backend=backend) as rt:
        ref = rt.new_handler("cell").create(Cell)
        with rt.separate(ref) as cell:
            cell.bump()
            assert (cell.read(), cell.read()) == (1, 1)
        stats = rt.stats()
    assert (stats["qoq_enqueues"], stats["sync_roundtrips"], stats["syncs_elided"]) == (1, 1, 1)


@pytest.mark.parametrize("level", ["none", "dynamic", "static", "qoq"])
def test_other_levels_keep_their_round_trips(level):
    with QsRuntime(level) as rt:
        ref = rt.new_handler("cell").create(Cell)
        for _ in range(3):
            assert _read_block(rt, ref) == 0
        stats = rt.stats()
    assert stats["sync_roundtrips"] == 3
    assert stats["syncs_elided"] == 0


@pytest.mark.parametrize("backend", IN_MEMORY)
class TestRaces:
    def test_a_busy_handler_is_synced_with(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("cell").create(Cell)
            entered, gate = rt.backend.create_event(), rt.backend.create_event()
            with rt.separate(ref) as cell:
                cell.hold(entered, gate)
            assert entered.wait(timeout=5.0)  # the handler sits inside an earlier block's command
            seen = []
            before = rt.stats()["sync_roundtrips"]
            rt.client(lambda: seen.append(_read_block(rt, ref)))
            _until(rt, lambda: seen or rt.stats()["sync_roundtrips"] > before)
            assert seen == []  # the query waits for the held command ...
            gate.set()
            rt.join_clients(timeout=5.0)
        assert seen == [1]  # ... and sees its effect

    def test_ending_an_inline_block_wakes_a_handler_holding_the_next(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("cell").create(Cell)
            qoq = rt.handler("cell").qoq
            seen = []

            def next_block() -> None:
                with rt.separate(ref) as cell:
                    cell.bump()
                    seen.append(cell.read())

            with rt.separate(ref) as cell:
                assert cell.read() == 0
                assert rt.stats()["sync_roundtrips"] == 0  # inline
                rt.client(next_block)
                # the next block is filed and its sync sent; the handler has
                # parked it (it waits for this block's ticket) and gone idle
                _until(rt, lambda: qoq._early and rt.stats()["sync_roundtrips"] == 1)
                rt.backend.sleep(0.05)
                assert seen == []
            # leaving the inline block passes its ticket on: the handler must wake
            _until(rt, lambda: seen)
            rt.join_clients(timeout=5.0)
        assert seen == [1]

    def test_shutdown_lets_go_of_a_block_never_filed(self, backend):
        rt = QsRuntime("all", backend=backend)
        ref = rt.new_handler("cell").create(Cell)
        block = rt.separate(ref)
        cell = block.__enter__()  # a ticket, nothing filed: the handler waits for it
        assert cell.read() == 0
        began = time.monotonic()
        rt.shutdown(timeout=2.0)
        # the handler gave the ticket up instead of waiting out the join timeout
        assert time.monotonic() - began < 2.0

    def test_eight_clients_mixing_commands_and_query_only_blocks(self, backend):
        clients, blocks = 8, 40
        wrong = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QsRuntime("all", backend=backend, trace=True) as rt:
                ref = rt.new_handler("ledger").create(Ledger)

                def client(me: int) -> None:
                    pushed = 0
                    for i in range(blocks):
                        with rt.separate(ref) as ledger:
                            if i % 3 == 0:
                                ledger.push(me, pushed)
                                pushed += 1
                                if ledger.last(me) != pushed - 1:
                                    wrong.append((me, i))
                            elif ledger.count(me) != pushed:
                                wrong.append((me, i))

                for me in range(clients):
                    rt.client(client, me)
                rt.join_clients(timeout=30.0)
        finally:
            sys.setswitchinterval(switch)
        stats = rt.stats()
        report = check_runtime(rt)
        assert wrong == []
        assert report.ok, [str(v) for v in report.violations]
        total = clients * blocks
        # every client ran to its end within the join timeout
        assert (stats["reservations"], stats["queries"]) == (total, total)
        # each block's one query either synced or ran on an idle handler
        assert stats["sync_roundtrips"] + stats["syncs_elided"] == total
        # every block that logged a command was filed; a query-only block
        # was filed unless it ran inline
        assert stats["qoq_enqueues"] + stats["syncs_elided"] >= total


@pytest.mark.parametrize("backend", IN_MEMORY)
def test_with_another_thread_client_running_a_block_hands_off_as_before(backend):
    # two thread clients: one that never waits would keep the interpreter
    # lock from the other, so the idle handler is synced with as before
    with QsRuntime("all", backend=backend) as rt:
        ref = rt.new_handler("cell").create(Cell)
        started, done = rt.backend.create_event(), rt.backend.create_event()
        seen = []

        def bystander() -> None:
            started.set()
            done.wait(timeout=5.0)

        def reader() -> None:
            started.wait(timeout=5.0)
            seen.append(_read_block(rt, ref))
            done.set()

        rt.client(bystander)
        rt.client(reader)
        rt.join_clients(timeout=5.0)
        stats = rt.stats()
    assert seen == [0]
    assert (stats["sync_roundtrips"], stats["syncs_elided"]) == (1, 0)
