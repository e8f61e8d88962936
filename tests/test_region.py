"""Tests for separate objects, handler ownership and race detection."""

import pickle
import threading

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
