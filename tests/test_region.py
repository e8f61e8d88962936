"""Tests for separate objects, handler ownership and race detection."""

import pickle
import sys
import threading
import time

import pytest

from repro.core.api import command, query
from repro.core.region import HandlerOwner, SeparateObject, SeparateRef
from repro.core.runtime import QsRuntime
from repro.errors import SeparateAccessError


class Cell(SeparateObject):
    def __init__(self, value=0):
        self.value = value

    @command
    def set(self, value):
        self.value = value

    @query
    def get(self):
        return self.value

    @query
    def me(self):
        return self


class TestSeparateObject:
    def test_unbound_object_behaves_normally(self):
        cell = Cell(5)
        assert cell.value == 5
        cell.value = 7
        assert cell.get() == 7

    def test_bound_object_rejects_foreign_thread(self):
        owner = HandlerOwner("h")
        owner.bind_thread(threading.Thread())  # a thread that is not us
        cell = Cell(1)
        cell._scoop_bind(owner)
        with pytest.raises(SeparateAccessError):
            _ = cell.value
        with pytest.raises(SeparateAccessError):
            cell.value = 3

    def test_owner_thread_allowed(self):
        owner = HandlerOwner("h")
        owner.bind_thread(threading.current_thread())
        cell = Cell(1)
        cell._scoop_bind(owner)
        assert cell.value == 1

    def test_sync_grant_allows_temporary_access(self):
        owner = HandlerOwner("h")
        owner.bind_thread(threading.Thread())
        cell = Cell(1)
        cell._scoop_bind(owner)
        owner.grant_sync_access(threading.current_thread())
        assert cell.value == 1
        owner.revoke_sync_access(threading.current_thread())
        with pytest.raises(SeparateAccessError):
            _ = cell.value

    def test_revoke_only_for_matching_thread(self):
        owner = HandlerOwner("h")
        me = threading.current_thread()
        owner.grant_sync_access(me)
        owner.revoke_sync_access(threading.Thread())  # someone else revoking
        assert owner.thread_allowed(me)


def _in_thread(fn):
    """Run ``fn`` on a new thread; what it returned or raised, and the thread."""
    outcome = {}

    def body():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed back to the test
            outcome["error"] = exc

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return outcome, thread


def _owned_cell(owner_thread):
    owner = HandlerOwner("h")
    owner.bind_thread(owner_thread)
    cell = Cell(1)
    cell._scoop_bind(owner)
    return owner, cell


class TestOwnershipCheck:
    """The check admits the owner thread and the synced client by identity."""

    def test_foreign_thread_is_refused_on_read_and_write(self):
        _owner, cell = _owned_cell(threading.current_thread())
        read, _ = _in_thread(lambda: cell.value)
        write, _ = _in_thread(lambda: setattr(cell, "value", 3))
        for outcome in (read, write):
            assert isinstance(outcome.get("error"), SeparateAccessError)
        assert cell.value == 1  # the owner still reads, and nothing was written

    def test_refusal_message_names_object_handler_and_thread(self):
        _owner, cell = _owned_cell(threading.current_thread())
        read, thread = _in_thread(lambda: cell.value)
        assert str(read["error"]) == (
            f"object Cell is handled by 'h'; thread {thread.name!r} may not access it "
            "directly. Use a separate block and log a call or query instead.")

    def test_refused_again_after_the_grant_is_revoked(self):
        owner, cell = _owned_cell(threading.Thread())

        def granted_then_revoked():
            me = threading.current_thread()
            owner.grant_sync_access(me)
            first = cell.value
            cell.value = 2
            owner.revoke_sync_access(me)
            with pytest.raises(SeparateAccessError):
                _ = cell.value
            with pytest.raises(SeparateAccessError):
                cell.value = 3
            return first

        outcome, _ = _in_thread(granted_then_revoked)
        assert outcome == {"value": 1}
        cell._scoop_owner().grant_sync_access(threading.current_thread())
        assert cell.value == 2  # the write made under the grant stuck

    def test_one_threads_grant_does_not_admit_another(self):
        owner, cell = _owned_cell(threading.Thread())
        owner.grant_sync_access(threading.current_thread())  # thread A: us
        assert cell.value == 1
        other, _ = _in_thread(lambda: cell.value)            # thread B
        assert isinstance(other.get("error"), SeparateAccessError)
        revoked, _ = _in_thread(lambda: owner.revoke_sync_access(threading.current_thread()))
        assert "error" not in revoked
        assert owner.thread_allowed(threading.current_thread())  # B cannot revoke A's grant

    def test_revokers_never_clear_another_threads_grant_under_contention(self):
        """The lock-free read and revoke paths, with more threads than cores."""
        owner, cell = _owned_cell(threading.Thread())
        stop = threading.Event()

        def revoker():
            me = threading.current_thread()
            while not stop.is_set():
                owner.revoke_sync_access(me)

        def holder():
            owner.grant_sync_access(threading.current_thread())
            deadline = time.monotonic() + 0.3
            reads = 0
            while time.monotonic() < deadline:
                _ = cell.value  # refused if a revoker cleared our grant
                reads += 1
            return reads

        interval = sys.getswitchinterval()
        revokers = [threading.Thread(target=revoker) for _ in range(4)]
        sys.setswitchinterval(1e-5)
        try:
            for thread in revokers:
                thread.start()
            outcome, _ = _in_thread(holder)
        finally:
            stop.set()
            for thread in revokers:
                thread.join(timeout=5)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in revokers)
        assert "error" not in outcome and outcome["value"] > 0

    def test_internal_names_stay_readable_from_a_foreign_thread(self):
        owner, cell = _owned_cell(threading.current_thread())
        outcome, _ = _in_thread(lambda: (cell._scoop_owner(), cell.__dict__, cell.__class__))
        found_owner, fields, cls = outcome["value"]
        assert found_owner is owner and cls is Cell
        assert fields["value"] == 1

    def test_a_thread_started_after_the_handler_finished_is_refused(self):
        """Identity, not ident: a later thread may reuse the finished one's ident."""
        _done, handler_thread = _in_thread(lambda: None)
        _owner, cell = _owned_cell(handler_thread)
        for _ in range(20):
            outcome, later = _in_thread(lambda: cell.value)
            assert isinstance(outcome.get("error"), SeparateAccessError)
            if later.ident == handler_thread.ident:
                break
        else:  # every later thread was refused, but none reused the ident
            pytest.skip("the platform did not reuse a finished thread's ident")


class TestPickling:
    """Ownership is not state: a bound object pickles, and arrives unbound."""

    def test_bound_object_round_trips_its_fields_and_comes_back_unbound(self):
        owner = HandlerOwner("h")  # holds a lock: unpicklable itself
        owner.bind_thread(threading.current_thread())
        cell = Cell(41)
        cell._scoop_bind(owner)
        cell.value += 1
        copy = pickle.loads(pickle.dumps(cell))
        assert copy._scoop_owner() is None
        assert copy.__dict__ == {"value": 42}
        assert cell._scoop_owner() is owner  # the original stays bound

    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_a_hosted_object_pickles(self, backend):
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("cell").create(Cell, 3)
            with rt.separate(ref) as cell:
                cell.set(4)
                if backend == "process":
                    # the reply pickles the bound object inside the worker
                    copy = cell.me()
                else:
                    copy = pickle.loads(pickle.dumps(cell.me()))
            assert type(copy) is Cell and copy._scoop_owner() is None
            assert copy.value == 4


class TestSeparateRef:
    def test_ref_blocks_direct_attribute_access(self):
        with QsRuntime("all") as rt:
            ref = rt.new_handler("cell").create(Cell, 3)
            with pytest.raises(SeparateAccessError):
                _ = ref.value
            assert isinstance(ref, SeparateRef)
            assert "Cell" in repr(ref)

    def test_raw_object_is_protected_outside_blocks(self):
        with QsRuntime("all") as rt:
            ref = rt.new_handler("cell").create(Cell, 3)
            raw = ref._raw()
            with pytest.raises(SeparateAccessError):
                _ = raw.value


class TestRaceDetectionEndToEnd:
    def test_direct_access_during_concurrent_use_raises(self, qs_runtime):
        ref = qs_runtime.new_handler("cell").create(Cell, 0)
        raw = ref._raw()
        with qs_runtime.separate(ref) as cell:
            cell.set(1)
        # outside any sync window, the main thread may not touch the object
        with pytest.raises(SeparateAccessError):
            raw.value = 99

    def test_query_grants_access_only_within_window(self, qs_runtime):
        ref = qs_runtime.new_handler("cell").create(Cell, 0)
        raw = ref._raw()
        with qs_runtime.separate(ref) as cell:
            assert cell.get() == 0
            if qs_runtime.config.client_executed_queries:
                # after a query the handler is parked on our queue: reading is
                # legal (this is what client-executed queries rely on) ...
                assert raw.value == 0
                # ... but logging another command revokes the window
                cell.set(5)
                with pytest.raises(SeparateAccessError):
                    _ = raw.value
