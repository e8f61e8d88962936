"""Process-backend specifics: hosting, codecs, counters, failure transport.

Backend *parity* (same programs, same observations, same counters as
threads/sim) lives in ``tests/test_backends.py``; this file covers what is
unique to crossing a process boundary: object hosting and remote handles,
the pickle/json codec split, cross-process counter aggregation, remote
exceptions, worker-process pooling, and the selection plumbing
(``process[:nproc][:codec]`` specs and ``REPRO_BACKEND``).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.backends import ProcessBackend
from repro.backends.process import RemoteHandle, RemoteHandlerError
from repro.backends.process_worker import HandlerServer
from repro.errors import QueryFailedError, ScoopError
from repro.queues.codec import get_codec
from repro.queues.socket_queue import FrameBuffers, FrameStream
from repro.queues.wire_queue import WireQueueCore


class Box(SeparateObject):
    """Stores whatever it is told — used to round-trip rich argument types."""

    def __init__(self) -> None:
        self.value = None
        self.calls = 0

    @command
    def put(self, value) -> None:
        self.value = value
        self.calls += 1

    @command
    def put_slowly(self, value, seconds: float) -> None:
        time.sleep(seconds)
        self.put(value)

    @query
    def get(self):
        return self.value

    @query
    def echo(self, value):
        return value

    @query
    def calls_seen(self) -> int:
        return self.calls


class Exploder(SeparateObject):
    @command
    def misfire(self) -> None:
        raise ValueError("deliberate async failure")

    @query
    def blow_up(self) -> None:
        raise KeyError("deliberate query failure")

    @query
    def ok(self) -> str:
        return "fine"


def top_level_halve(obj, n):
    """Module-level helper for apply/compute over the pickle codec."""
    return n // 2


class TestHosting:
    def test_create_returns_remote_handle(self):
        with QsRuntime("all", backend="process") as rt:
            ref = rt.new_handler("box").create(Box)
            assert isinstance(ref._raw(), RemoteHandle)
            assert ref._raw()._scoop_class is Box
            with rt.separate(ref) as b:
                b.put(41)
                assert b.get() == 41

    def test_unpicklable_object_is_a_clear_error(self):
        class Local(SeparateObject):  # nested class: pickle cannot import it
            pass

        with QsRuntime("all", backend="process") as rt:
            with pytest.raises(ScoopError, match="picklable"):
                rt.new_handler("h").create(Local)
            # the runtime (and its worker) must survive the failed adopt
            ref = rt.new_handler("ok").create(Box)
            with rt.separate(ref) as b:
                b.put(1)
                assert b.get() == 1

    def test_multiple_objects_per_handler(self):
        with QsRuntime("all", backend="process") as rt:
            handler = rt.new_handler("shelf")
            first, second = handler.create(Box), handler.create(Box)
            with rt.separate(first) as b:
                b.put("a")
            with rt.separate(second) as b:
                b.put("b")
            with rt.separate(first) as b:
                assert b.get() == "a"
            with rt.separate(second) as b:
                assert b.get() == "b"


class TestCodecs:
    def test_pickle_codec_round_trips_rich_arguments(self):
        """Satellite: the pickle codec keeps tuples tuples, end to end."""
        payload = {"point": (1, 2), "nested": [(3, 4), {5, 6}], "blob": b"\x00\xff"}
        with QsRuntime("all", backend="process:pickle") as rt:
            ref = rt.new_handler("box").create(Box)
            with rt.separate(ref) as b:
                b.put(payload)
                value = b.get()
        assert value == payload
        assert isinstance(value["point"], tuple)
        assert isinstance(value["nested"][0], tuple)
        assert isinstance(value["nested"][1], set)

    def test_json_codec_carries_json_types(self):
        with QsRuntime("all", backend="process:json") as rt:
            ref = rt.new_handler("box").create(Box)
            with rt.separate(ref) as b:
                b.put({"n": 3, "xs": [1, 2.5, "three", None, True]})
                assert b.get() == {"n": 3, "xs": [1, 2.5, "three", None, True]}

    def test_json_codec_rejects_callables_with_guidance(self):
        with QsRuntime("all", backend="process:json") as rt:
            ref = rt.new_handler("box").create(Box)
            with rt.separate(ref) as b:
                with pytest.raises(ScoopError, match="'pickle' or 'bin'"):
                    b.apply(top_level_halve, 10)
                # a query body the codec refuses never became pending
                with pytest.raises(ScoopError, match="'pickle' or 'bin'"):
                    b.compute(top_level_halve, 10)
                b.put(3)
                assert b.get() == 3

    def test_pickle_codec_ships_callables(self):
        with QsRuntime("all", backend="process") as rt:
            ref = rt.new_handler("box").create(Box)
            with rt.separate(ref) as b:
                assert b.compute(top_level_halve, 10) == 5

    def test_bin_codec_round_trips_rich_arguments(self):
        """Tentpole: the compact binary codec has pickle's fidelity."""
        payload = {"point": (1, 2), "nested": [(3, 4), {5, 6}], "blob": b"\x00\xff",
                   "big": 2 ** 80}
        with QsRuntime("all", backend="process:bin") as rt:
            ref = rt.new_handler("box").create(Box)
            with rt.separate(ref) as b:
                b.put(payload)
                value = b.get()
        assert value == payload
        assert isinstance(value["point"], tuple)
        assert isinstance(value["nested"][0], tuple)
        assert isinstance(value["nested"][1], set)

    def test_bin_codec_ships_callables_via_pickle_fallback(self):
        with QsRuntime("all", backend="process:bin") as rt:
            ref = rt.new_handler("box").create(Box)
            with rt.separate(ref) as b:
                assert b.compute(top_level_halve, 10) == 5

    def test_nested_tuple_payload_under_all_three_codecs(self):
        """Satellite: json raises a pointed error instead of silently
        mutating nested tuples into lists; pickle and bin stay faithful."""
        nested = [("k", (1, 2))]
        for codec in ("pickle", "bin"):
            with QsRuntime("all", backend=f"process:{codec}") as rt:
                ref = rt.new_handler("box").create(Box)
                with rt.separate(ref) as b:
                    b.put(nested)
                    value = b.get()
                assert value == nested
                assert isinstance(value[0], tuple)
                assert isinstance(value[0][1], tuple)
        with QsRuntime("all", backend="process:json") as rt:
            ref = rt.new_handler("box").create(Box)
            with rt.separate(ref) as b:
                with pytest.raises(ScoopError, match="pickle.*bin|bin.*pickle"):
                    b.put(nested)

    def test_coalescing_counter_identical_across_codecs(self):
        """A burst of async calls coalesces into batched sendalls, and the
        wire_frames_coalesced counter — a pure frame count — must not
        depend on the codec."""
        observed = {}
        for codec in ("json", "pickle", "bin"):
            with QsRuntime("all", backend=f"process:{codec}") as rt:
                ref = rt.new_handler("box").create(Box)
                with rt.separate(ref) as b:
                    for i in range(100):
                        b.put(i)
                    assert b.calls_seen() == 100
                observed[codec] = rt.stats()["wire_frames_coalesced"]
        assert observed["json"] == observed["pickle"] == observed["bin"]
        assert observed["json"] > 0, "a 100-call burst must coalesce frames"

    def test_packaged_function_query_ships_raw_fn(self):
        # regression: with client-executed queries off, query_function wraps
        # the user fn in a local lambda; the transport must ship the raw fn
        # (plus its arguments), not try to pickle the wrapper
        with QsRuntime("qoq", backend="process") as rt:
            ref = rt.new_handler("box").create(Box)
            with rt.separate(ref) as b:
                assert b.compute(top_level_halve, 10) == 5


class TestCountersAggregation:
    def test_calls_executed_visible_before_shutdown(self):
        with QsRuntime("all", backend="process") as rt:
            ref = rt.new_handler("box").create(Box)
            with rt.separate(ref) as b:
                for i in range(7):
                    b.put(i)
                assert b.calls_seen() == 7  # the sync makes the work visible
            stats = rt.stats()
        assert stats["calls_executed"] == 7
        assert stats["async_calls"] == 7

    def test_final_snapshot_merged_at_shutdown(self):
        rt = QsRuntime("all", backend="process")
        ref = rt.new_handler("box").create(Box)
        with rt.separate(ref) as b:
            b.put(1)
            b.put(2)
        rt.shutdown()
        # no query ever forced a reply; the close report must carry the count
        assert rt.stats()["calls_executed"] == 2


    @pytest.mark.parametrize("codec, limit", [("pickle", 100), ("bin", 64), ("json", 96)])
    def test_a_reply_carries_only_the_nonzero_counters(self, codec, limit):
        # every reply used to pickle all 32 counter names, 29 of them zero:
        # ~700 B where the ones that say something take under 100
        ours, theirs = socket.socketpair()
        server = HandlerServer("box")
        server.host(1, Box())
        server.add_connection(FrameStream(theirs, codec), "c")
        stream = FrameStream(ours, codec)
        try:
            stream.send({"kind": "open", "ticket": 0, "block": None})
            for i in range(3):
                stream.send({"kind": "call", "oid": 1, "feature": "put", "args": [i], "kwargs": {}})
            stream.send({"kind": "invoke", "oid": 1, "feature": "calls_seen",
                         "args": [], "kwargs": {}})
            stream.send({"kind": "end"})
            reply = stream.recv(timeout=10.0)
            assert reply == {"kind": "result", "value": 3, "counters": {"calls_executed": 3}}
            assert len(get_codec(codec).encode(reply)) < limit
            assert server.report()["counters"] == {"calls_executed": 3}
        finally:
            server.close(1)
            stream.close()
        assert server.drained.wait(timeout=5.0)


def _wire_recorder(monkeypatch):
    """Record every private-queue frame the parent frames and every reply
    it classifies (the control channel's ops have no ``kind``)."""
    frames, replies = [], []
    add_frame, classify = FrameBuffers.add_frame, WireQueueCore.classify

    def recording_add_frame(self, payload):
        if "kind" in payload:
            frames.append(payload["kind"])
        return add_frame(self, payload)

    def recording_classify(self, reply):
        replies.append(reply["kind"])
        return classify(self, reply)

    monkeypatch.setattr(FrameBuffers, "add_frame", recording_add_frame)
    monkeypatch.setattr(WireQueueCore, "classify", recording_classify)
    return frames, replies


_BOTH_DRIVERS = [("process", False), ("process+async:1:1", False), ("process+async:1:1", True)]


def _run_one_client(rt, thread_client, coroutine_client, coroutine: bool) -> None:
    rt.client(coroutine_client if coroutine else thread_client)
    rt.join_clients()


class TestOneRoundTripPerQuery:
    """The sync rides the query body: exact frame and reply counts."""

    @pytest.mark.parametrize("spec, coroutine", _BOTH_DRIVERS)
    def test_k_calls_and_a_query_are_k_plus_3_frames_and_one_reply(self, spec, coroutine,
                                                                   monkeypatch):
        frames, replies = _wire_recorder(monkeypatch)
        with QsRuntime("all", backend=spec) as rt:
            ref = rt.new_handler("box").create(Box)

            def thread_client() -> None:
                with rt.separate(ref) as b:
                    for i in range(5):
                        b.put(i)
                    assert b.calls_seen() == 5

            async def coroutine_client() -> None:
                async with rt.aclient().separate(ref) as b:
                    for i in range(5):
                        await b.put(i)
                    assert await b.calls_seen() == 5

            _run_one_client(rt, thread_client, coroutine_client, coroutine)
            stats = rt.stats()
        assert frames == ["hello", "open"] + ["call"] * 5 + ["invoke", "end"]
        assert replies == ["result"]
        # the counter still counts the round trip the sync rides on
        assert (stats["queries"], stats["sync_roundtrips"], stats["syncs_elided"]) == (1, 1, 0)

    @pytest.mark.parametrize("spec, coroutine", _BOTH_DRIVERS)
    def test_an_explicit_sync_is_still_a_barrier_with_its_own_frame(self, spec, coroutine,
                                                                    monkeypatch):
        frames, replies = _wire_recorder(monkeypatch)
        waited = []
        with QsRuntime("all", backend=spec) as rt:
            ref = rt.new_handler("box").create(Box)

            def thread_client() -> None:
                with rt.separate(ref) as b:
                    b.put_slowly("done", 0.15)
                    started = time.perf_counter()
                    assert b.sync_() is True
                    waited.append(time.perf_counter() - started)
                    assert b.get() == "done"  # parked: the body alone travels

            async def coroutine_client() -> None:
                async with rt.aclient().separate(ref) as b:
                    await b.put_slowly("done", 0.15)
                    started = time.perf_counter()
                    assert await b.sync_() is True
                    waited.append(time.perf_counter() - started)
                    assert await b.get() == "done"

            _run_one_client(rt, thread_client, coroutine_client, coroutine)
            stats = rt.stats()
        assert frames == ["hello", "open", "call", "sync", "invoke", "end"]
        assert replies == ["release", "result"]
        assert waited[0] >= 0.1, "sync_() must block until the handler reaches the marker"
        assert (stats["sync_roundtrips"], stats["syncs_elided"]) == (1, 1)

    @pytest.mark.parametrize("spec, coroutine", _BOTH_DRIVERS)
    def test_an_abandoned_query_leaves_no_reply_for_the_next_block(self, spec, coroutine):
        # the queue (and its connection) is cached across blocks: the reply
        # nobody read must not answer the next block's first query
        seen = []
        with QsRuntime("all", backend=spec) as rt:
            ref = rt.new_handler("box").create(Box)

            def thread_client() -> None:
                client = rt.client()
                with rt.separate(ref) as b:
                    b.put("first")
                    abandoned = client.issue_query(ref, "get")
                with rt.separate(ref) as b:
                    b.put("second")
                    seen.append(b.get())
                    with pytest.raises(ScoopError, match="abandoned"):
                        abandoned.wait()
                    seen.append(b.calls_seen())

            async def coroutine_client() -> None:
                client = rt.aclient()
                async with client.separate(ref) as b:
                    await b.put("first")
                    abandoned = client.issue_query(ref, "get")
                async with client.separate(ref) as b:
                    await b.put("second")
                    seen.append(await b.get())
                    with pytest.raises(ScoopError, match="abandoned"):
                        await abandoned.wait_async()
                    seen.append(await b.calls_seen())

            _run_one_client(rt, thread_client, coroutine_client, coroutine)
        assert seen == ["second", 2]

    @pytest.mark.parametrize("spec, coroutine", _BOTH_DRIVERS)
    def test_a_failing_body_still_leaves_the_handler_synced(self, spec, coroutine, monkeypatch):
        frames, _ = _wire_recorder(monkeypatch)
        with QsRuntime("all", backend=spec) as rt:
            ref = rt.new_handler("boom").create(Exploder)

            def thread_client() -> None:
                with rt.separate(ref) as e:
                    with pytest.raises(KeyError, match="deliberate query failure"):
                        e.blow_up()
                    assert e.ok() == "fine"

            async def coroutine_client() -> None:
                async with rt.aclient().separate(ref) as e:
                    with pytest.raises(KeyError, match="deliberate query failure"):
                        await e.blow_up()
                    assert await e.ok() == "fine"

            _run_one_client(rt, thread_client, coroutine_client, coroutine)
            stats = rt.stats()
        # in memory the sync succeeds before the body raises; same books here
        assert frames == ["hello", "open", "invoke", "invoke", "end"]
        assert (stats["sync_roundtrips"], stats["syncs_elided"]) == (1, 1)


class TestRemoteFailures:
    def test_query_exception_keeps_its_type(self):
        with QsRuntime("all", backend="process") as rt:
            ref = rt.new_handler("boom").create(Exploder)
            with rt.separate(ref) as e:
                with pytest.raises(KeyError, match="deliberate query failure"):
                    e.blow_up()
                assert e.ok() == "fine"  # the handler survives a failed query

    def test_packaged_query_exception_wrapped_like_in_memory(self):
        config = QsRuntime("none", backend="process")
        with config as rt:
            ref = rt.new_handler("boom").create(Exploder)
            with rt.separate(ref) as e:
                with pytest.raises(QueryFailedError):
                    e.ask("blow_up")

    def test_async_failure_surfaces_at_shutdown(self):
        rt = QsRuntime("all", backend="process")
        ref = rt.new_handler("boom").create(Exploder)
        with rt.separate(ref) as e:
            e.misfire()
        with pytest.raises(ScoopError, match="asynchronous call"):
            rt.shutdown()
        failures = rt.handler_failures()
        assert len(failures) == 1
        assert isinstance(failures[0], RemoteHandlerError)
        assert "deliberate async failure" in str(failures[0])
        assert "misfire" in failures[0].remote_traceback


class TestWorkerPooling:
    def test_processes_cap_shares_workers(self):
        backend = ProcessBackend(processes=1)
        with QsRuntime("all", backend=backend) as rt:
            refs = [rt.new_handler(f"h{i}").create(Box) for i in range(3)]
            for i, ref in enumerate(refs):
                with rt.separate(ref) as b:
                    b.put(i * 10)
            values = []
            for ref in refs:
                with rt.separate(ref) as b:
                    values.append(b.get())
            assert values == [0, 10, 20]
            assert len(backend._workers) == 1

    def test_default_is_one_process_per_handler(self):
        backend = ProcessBackend()
        with QsRuntime("all", backend=backend) as rt:
            rt.new_handler("a").create(Box)
            rt.new_handler("b").create(Box)
            assert len(backend._workers) == 2

    def test_multi_handler_reservations_across_workers(self):
        with QsRuntime("all", backend="process") as rt:
            left = rt.new_handler("left").create(Box)
            right = rt.new_handler("right").create(Box)
            for i in range(5):
                with rt.separate(left, right) as (lt, rt_):
                    lt.put(i)
                    rt_.put(-i)
                    assert (lt.get(), rt_.get()) == (i, -i)


def test_a_worker_process_does_not_import_numpy():
    # 120 of a worker's 310 ms start-up and 12 of its 37 MiB, per worker
    probe = ("import sys, repro.backends.process_worker; "
             "sys.exit('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc to count descriptors")
@pytest.mark.parametrize("spec", ["process", "process+async:1:1"])
def test_short_lived_clients_do_not_accumulate_descriptors(spec):
    # regression: every finished client left its connection (and a reader
    # thread in the worker) open until shutdown — 100 clients, 100 fds
    with QsRuntime("all", backend=spec) as rt:
        ref = rt.new_handler("box").create(Box)
        seen = []

        def thread_client(n: int) -> None:
            with rt.separate(ref) as box:
                box.put(n)
                seen.append(box.get())

        async def coroutine_client(n: int) -> None:
            async with rt.aclient().separate(ref) as box:
                await box.put(n)
                seen.append(await box.get())

        rt.client(thread_client, -1)  # warm up: worker, listener, loop plumbing
        rt.join_clients()
        before = _open_fds()
        for n in range(200):
            coroutine = rt.backend.supports_async_clients and n % 2
            rt.client(coroutine_client if coroutine else thread_client, n)
            rt.join_clients()
        assert seen == [-1, *range(200)]
        assert rt._client_handles == []
        deadline = time.monotonic() + 5.0  # a loop closes its transports a tick later
        while _open_fds() > before + 4 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _open_fds() <= before + 4


class TestSelection:
    def test_env_var_selects_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process:1")
        with QsRuntime("all") as rt:
            assert rt.backend.name == "process"
            assert rt.backend.processes == 1

    def test_config_carries_process_backend(self, monkeypatch):
        from repro.config import QsConfig

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with QsRuntime(QsConfig.all().with_(backend="process:1:json")) as rt:
            assert rt.backend.name == "process"
            assert rt.backend.codec == "json"

    def test_runtime_event_is_a_thread_event(self):
        # clients stay threads of the parent under the process backend
        with QsRuntime("all", backend="process:1") as rt:
            event = rt.event()
            event.set()
            assert event.is_set()
