"""The ``repro.serve`` gateway: units, integration and error paths."""

import asyncio
import json
import socket
import time
from contextlib import contextmanager

import pytest

from repro import QsRuntime, ScoopError
from repro.serve import (
    AdmissionController,
    BadRequest,
    Gateway,
    ReadCache,
    Router,
    MISS,
    serve_cases,
)
from repro.serve.http import format_request, format_response, read_request, read_response
from repro.util.counters import Counters

#: every real-time backend the gateway must serve on (sim is rejected)
GATEWAY_BACKENDS = ("threads", "process", "async", "process+async")


async def _request(host, port, method, target, payload=None):
    """One request on its own connection; returns (status, decoded body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        writer.write(format_request(method, target, body, keep_alive=False))
        await writer.drain()
        status, _headers, raw = await read_response(reader)
        return status, (json.loads(raw) if raw else None)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _request_unshed(host, port, method, target, payload=None):
    """Like ``_request`` but retries a shed (503) response: admission refuses
    before dispatch, so a retry can neither lose nor duplicate a write."""
    deadline = time.monotonic() + 10.0
    while True:
        status, body = await _request(host, port, method, target, payload)
        if status != 503 or time.monotonic() >= deadline:
            return status, body
        await asyncio.sleep(0.02)


def http(addr, method, target, payload=None):
    """One request over a fresh connection (blocking helper for tests)."""
    return asyncio.run(_request(addr[0], addr[1], method, target, payload))


def http_concurrent(addr, calls):
    """Fire many requests concurrently; returns [(status, body), ...]."""
    async def go():
        return await asyncio.gather(
            *[_request(addr[0], addr[1], method, target, payload)
              for method, target, payload in calls])
    return asyncio.run(go())


@contextmanager
def gateway_on(backend, **kwargs):
    kwargs.setdefault("shards", 2)
    with QsRuntime(backend=backend) as rt:
        gateway = serve_cases(rt, **kwargs)
        try:
            yield rt, gateway
        finally:
            gateway.stop()


# ---------------------------------------------------------------------------
# units: router
# ---------------------------------------------------------------------------
class TestRouter:
    def test_resolve_binds_placeholders(self):
        router = Router()
        router.add("GET", "/cases/{case_id}/allegations", lambda: None,
                   entity="case_id", cache=True)
        match = router.resolve("GET", "/cases/abc-7/allegations")
        assert match.params == {"case_id": "abc-7"}
        assert match.entity_key == "abc-7"
        assert match.route.cache is True

    def test_resolve_distinguishes_404_from_405(self):
        router = Router()
        router.add("GET", "/cases/{case_id}", lambda: None, entity="case_id")
        assert router.resolve("PUT", "/cases/1") == 405
        assert router.resolve("GET", "/nope") is None

    def test_placeholders_do_not_cross_segments(self):
        router = Router()
        router.add("GET", "/cases/{case_id}", lambda: None)
        assert router.resolve("GET", "/cases/1/allegations") is None

    def test_cacheable_non_get_rejected(self):
        with pytest.raises(ValueError, match="only GET routes"):
            Router().add("POST", "/x/{id}", lambda: None, cache=True)

    def test_entity_must_be_a_placeholder(self):
        with pytest.raises(ValueError, match="no such placeholder"):
            Router().add("GET", "/cases/{case_id}", lambda: None, entity="user_id")

    def test_describe_lists_the_table(self):
        from repro.serve.app import case_router

        table = case_router().describe()
        assert {"method": "GET", "template": "/cases/{case_id}", "entity": "case_id",
                "cache": True, "handler": "get_case"} in table


# ---------------------------------------------------------------------------
# units: cache
# ---------------------------------------------------------------------------
class TestReadCache:
    def test_miss_store_hit_and_counters(self):
        counters = Counters()
        cache = ReadCache(counters)
        assert cache.lookup("e", "/r") is MISS
        epoch = cache.begin_read("e")
        assert cache.store("e", "/r", epoch, "value") is True
        assert cache.lookup("e", "/r") == "value"
        assert counters.get("cache_hits") == 1
        assert counters.get("cache_misses") == 1

    def test_invalidate_drops_every_resource_of_the_entity(self):
        cache = ReadCache()
        epoch = cache.begin_read("e")
        cache.store("e", "/a", epoch, 1)
        cache.store("e", "/b", epoch, 2)
        other = cache.begin_read("other")
        cache.store("other", "/a", other, 3)
        cache.invalidate("e")
        assert cache.lookup("e", "/a") is MISS
        assert cache.lookup("e", "/b") is MISS
        assert cache.lookup("other", "/a") == 3
        assert cache.counters.get("cache_invalidations") == 1

    def test_stale_repopulation_race_is_blocked_by_the_epoch_guard(self):
        # the race: a read snapshots the value, a write invalidates, then the
        # read tries to cache its (now stale) value — the store must refuse
        cache = ReadCache()
        epoch = cache.begin_read("e")
        cache.invalidate("e")        # concurrent write wins the race
        assert cache.store("e", "/r", epoch, "stale") is False
        assert cache.lookup("e", "/r") is MISS

    def test_overflow_evicts_instead_of_growing(self):
        cache = ReadCache(max_entries=2)
        for i in range(5):
            cache.store(f"e{i}", "/r", cache.begin_read(f"e{i}"), i)
        assert len(cache._entries) <= 2


# ---------------------------------------------------------------------------
# units: depth probe + admission
# ---------------------------------------------------------------------------
class TestDepthProbeAndAdmission:
    def test_probe_tracks_in_flight_per_shard(self):
        with QsRuntime() as rt:
            from repro.serve.app import create_case_group

            group = create_case_group(rt, shards=2)
            probe = group.depth_probe()
            assert probe.depth("k") == 0
            token = probe.enter("k")
            assert probe.in_flight("k") == 1
            assert probe.depth("k") >= 1
            same_shard_token = probe.enter("k")
            assert probe.in_flight("k") == 2
            probe.exit(token)
            probe.exit(same_shard_token)
            assert probe.depth("k") == 0
            assert probe.snapshot() == ()

    def test_admission_sheds_at_the_watermark(self):
        class FakeProbe:
            def __init__(self):
                self.level = 0

            def depth(self, key):
                return self.level

            def enter(self, key):
                self.level += 1
                return "shard"

            def exit(self, token):
                self.level -= 1

        counters = Counters()
        controller = AdmissionController(FakeProbe(), watermark=2, counters=counters)
        first = controller.admit("k")
        second = controller.admit("k")
        assert first is not None and second is not None
        assert controller.admit("k") is None          # at the watermark: shed
        assert counters.get("serve_shed") == 1
        controller.release(first)
        assert controller.admit("k") is not None      # slot freed
        controller.release(None)                      # no-op, no crash

    def test_watermark_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            AdmissionController(object(), watermark=0)


# ---------------------------------------------------------------------------
# units: http framing
# ---------------------------------------------------------------------------
def _parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)
    return asyncio.run(go())


class TestHttpFraming:
    def test_round_trip_request(self):
        request = _parse(format_request("POST", "/cases/1/allegations?x=1",
                                        b'{"a":2}'))
        assert request.method == "POST"
        assert request.path == "/cases/1/allegations"
        assert request.query == {"x": "1"}
        assert request.json() == {"a": 2}
        assert request.keep_alive is True

    @pytest.mark.parametrize("raw", [
        b"garbage\r\n\r\n",
        b"GET /x\r\n\r\n",                                  # no version
        b"BREW /pot HTTP/1.1\r\n\r\n",                      # unknown method
        b"GET /x HTTP/2.0\r\n\r\n",                         # bad version
        b"GET relative HTTP/1.1\r\n\r\n",                   # not absolute-path
        b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",        # bad header
        b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",   # truncated body
        b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    ])
    def test_malformed_requests_raise_bad_request(self, raw):
        with pytest.raises(BadRequest):
            _parse(raw)

    def test_clean_close_between_requests_is_eof(self):
        with pytest.raises(EOFError):
            _parse(b"")

    def test_connection_close_header_disables_keep_alive(self):
        request = _parse(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert request.keep_alive is False

    def test_response_round_trip(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(format_response(200, b'{"ok":true}'))
            reader.feed_eof()
            return await read_response(reader)
        status, headers, body = asyncio.run(go())
        assert status == 200
        assert headers["content-length"] == "11"
        assert json.loads(body) == {"ok": True}


# ---------------------------------------------------------------------------
# integration: the gateway on every real-time backend
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", GATEWAY_BACKENDS)
class TestGatewayOnEveryBackend:
    def test_crud_and_write_then_read_fresh(self, backend):
        with gateway_on(backend) as (rt, gateway):
            addr = gateway.address
            expected_mode = ("async-native" if backend in ("async", "process+async")
                             else "executor")
            assert gateway.mode == expected_mode

            status, body = http(addr, "GET", "/cases/nope")
            assert status == 404

            status, body = http(addr, "PUT", "/cases/c1", {"title": "first"})
            assert (status, body["version"]) == (200, 1)

            status, body = http(addr, "GET", "/cases/c1")
            assert status == 200 and body["data"] == {"title": "first"}

            hits_before = rt.counters.get("cache_hits")
            status, body = http(addr, "GET", "/cases/c1")
            assert status == 200
            assert rt.counters.get("cache_hits") == hits_before + 1

            # write-through invalidation: the very next read is fresh
            status, body = http(addr, "PUT", "/cases/c1", {"title": "second"})
            assert (status, body["version"]) == (200, 2)
            status, body = http(addr, "GET", "/cases/c1")
            assert status == 200 and body["data"] == {"title": "second"}

            status, body = http(addr, "POST", "/cases/c1/allegations",
                                {"token": "t1", "text": "x"})
            assert (status, body["index"]) == (201, 0)
            status, body = http(addr, "GET", "/cases/c1/allegations")
            assert status == 200
            assert [a["token"] for a in body["allegations"]] == ["t1"]

            status, _ = http(addr, "DELETE", "/cases/c1")
            assert status == 405
            status, _ = http(addr, "GET", "/not/a/route")
            assert status == 404
            status, body = http(addr, "GET", "/healthz")
            assert status == 200 and body["backend"] == rt.backend.name
            status, body = http(addr, "GET", "/metrics")
            assert status == 200 and body["serve_requests"] > 0
            status, body = http(addr, "GET", "/routes")
            assert status == 200 and len(body) == 7

    def test_interleaved_writers_lose_nothing(self, backend):
        with gateway_on(backend) as (rt, gateway):
            addr = gateway.address
            http(addr, "PUT", "/cases/c1", {})
            calls = [("POST", "/cases/c1/allegations", {"token": f"t{i}"})
                     for i in range(16)]
            results = http_concurrent(addr, calls)
            acked = sum(1 for status, _ in results if status == 201)
            _, body = http(addr, "GET", "/cases/c1/allegations")
            tokens = [a["token"] for a in body["allegations"]]
            assert len(tokens) == acked == 16
            assert len(set(tokens)) == 16

    def test_read_your_writes_under_concurrent_writers(self, backend):
        # every listing read below is cacheable and every other client keeps
        # writing the same two cases, so a client sees its own token only if
        # each POST drops the listing cached since the previous one (the epoch
        # guard's own race is pinned by TestReadCache, it cannot be timed here)
        clients, rounds, cases = 10, 4, ("c0", "c1")
        with gateway_on(backend) as (rt, gateway):
            host, port = gateway.address
            for case in cases:
                http(gateway.address, "PUT", f"/cases/{case}", {})

            async def client(number):
                acked = []
                for round_ in range(rounds):
                    case = cases[(number + round_) % len(cases)]
                    token = f"client{number}-write{round_}"
                    status, _ = await _request_unshed(
                        host, port, "POST", f"/cases/{case}/allegations", {"token": token})
                    assert status == 201, f"{token}: POST answered {status}"
                    acked.append(token)
                    status, body = await _request_unshed(
                        host, port, "GET", f"/cases/{case}/allegations")
                    assert status == 200, f"{token}: GET answered {status}"
                    assert token in [a["token"] for a in body["allegations"]], \
                        f"{token} was acknowledged but its writer cannot read it"
                return acked

            async def go():
                return await asyncio.gather(*[client(n) for n in range(clients)])

            acked = [token for per_client in asyncio.run(go()) for token in per_client]
            assert len(acked) == clients * rounds
            stored = []
            for case in cases:
                _, body = http(gateway.address, "GET", f"/cases/{case}/allegations")
                stored += [a["token"] for a in body["allegations"]]
            assert sorted(stored) == sorted(acked)      # each exactly once
            assert rt.counters.get("cache_invalidations") >= len(acked)


# ---------------------------------------------------------------------------
# integration: error paths (single backend where the path is backend-neutral)
# ---------------------------------------------------------------------------
class TestGatewayErrorPaths:
    def test_sim_backend_rejected(self):
        with QsRuntime(backend="sim") as rt:
            from repro.serve.app import create_case_group

            group = create_case_group(rt, shards=1)
            with pytest.raises(ScoopError, match="virtual time"):
                Gateway(rt, group)

    def test_malformed_http_gets_a_400_and_close(self):
        with gateway_on("threads") as (rt, gateway):
            with socket.create_connection(gateway.address, timeout=5) as sock:
                sock.sendall(b"this is not http\r\n\r\n")
                raw = b""
                while b"\r\n\r\n" not in raw:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    raw += chunk
                assert raw.startswith(b"HTTP/1.1 400 ")
            # the gateway survives and keeps serving
            status, _ = http(gateway.address, "GET", "/healthz")
            assert status == 200

    def test_bad_json_body_is_a_400_not_a_500(self):
        with gateway_on("threads") as (rt, gateway):
            with socket.create_connection(gateway.address, timeout=5) as sock:
                sock.sendall(b"PUT /cases/c1 HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 9\r\n\r\nnot json!")
                raw = sock.recv(4096)
                assert raw.startswith(b"HTTP/1.1 400 ")

    @pytest.mark.parametrize("backend", ["threads", "process+async"])
    def test_disconnect_mid_response_does_not_wedge_the_drain(self, backend):
        with gateway_on(backend) as (rt, gateway):
            addr = gateway.address
            http(addr, "PUT", "/cases/c1", {"title": "x"})
            # a client that sends a request and vanishes without reading
            for _ in range(5):
                sock = socket.create_connection(addr, timeout=5)
                sock.sendall(b"GET /cases/c1 HTTP/1.1\r\nHost: x\r\n\r\n")
                sock.close()
            # one that dies mid-request (promised body never arrives)
            sock = socket.create_connection(addr, timeout=5)
            sock.sendall(b"POST /cases/c1/allegations HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 100\r\n\r\n{\"tok")
            sock.close()
            # the shard keeps serving everyone else, nothing is wedged
            deadline = time.monotonic() + 5
            while True:
                try:
                    status, body = http(addr, "GET", "/cases/c1")
                    assert status == 200 and body["data"] == {"title": "x"}
                    break
                except (ConnectionError, OSError):
                    if time.monotonic() > deadline:
                        raise
            status, body = http(addr, "POST", "/cases/c1/allegations", {"token": "after"})
            assert status == 201

    @pytest.mark.parametrize("backend", ["threads", "process+async"])
    def test_saturated_shard_sheds_503_and_loses_no_acked_write(self, backend):
        with gateway_on(backend, watermark=1) as (rt, gateway):
            addr = gateway.address
            http(addr, "PUT", "/cases/hot", {})
            calls = [("POST", "/cases/hot/allegations", {"token": f"t{i}"})
                     for i in range(40)]
            results = http_concurrent(addr, calls)
            statuses = [status for status, _ in results]
            assert 503 in statuses, "watermark 1 under 40 concurrent writes must shed"
            acked = {body["index"] for status, body in results if status == 201}
            assert acked, "at least one write must get through"
            assert rt.counters.get("serve_shed") > 0
            shed = next(body for status, body in results if status == 503)
            assert shed["entity"] == "hot"
            # lossless under shedding: exactly the acked writes are present
            _, body = http(addr, "GET", "/cases/hot/allegations")
            assert len(body["allegations"]) == len(acked)

    def test_cache_hits_are_served_even_past_the_watermark(self):
        with gateway_on("threads", watermark=1) as (rt, gateway):
            addr = gateway.address
            http(addr, "PUT", "/cases/c1", {"title": "x"})
            http(addr, "GET", "/cases/c1")            # populate
            # hold the only admission slot for c1's shard
            ticket = gateway.admission.admit("c1")
            assert ticket is not None
            try:
                status, _ = http(addr, "GET", "/cases/c1")
                assert status == 200                  # cache hit, no admission
                status, _ = http(addr, "POST", "/cases/c1/allegations", {"token": "t"})
                assert status == 503                  # writes cannot bypass
            finally:
                gateway.admission.release(ticket)

    def test_keep_alive_serves_multiple_requests_per_connection(self):
        with gateway_on("threads") as (rt, gateway):
            http(gateway.address, "PUT", "/cases/c1", {"title": "x"})

            async def two_on_one_connection():
                reader, writer = await asyncio.open_connection(*gateway.address)
                try:
                    writer.write(format_request("GET", "/cases/c1"))
                    await writer.drain()
                    first = await read_response(reader)
                    writer.write(format_request("GET", "/cases/c1", keep_alive=False))
                    await writer.drain()
                    second = await read_response(reader)
                    return first, second
                finally:
                    writer.close()

            first, second = asyncio.run(two_on_one_connection())
            assert first[0] == 200 and second[0] == 200
            assert first[1]["connection"] == "keep-alive"
            assert second[1]["connection"] == "close"

    def test_handler_exception_is_a_500_not_a_hang(self):
        from repro.serve.app import create_case_group

        router = Router()

        async def boom(ctx, request):
            raise RuntimeError("kaboom")

        router.add("GET", "/boom", boom)
        with QsRuntime(backend="threads") as rt:
            group = create_case_group(rt, shards=1)
            gateway = Gateway(rt, group, router=router).start()
            try:
                status, body = http(gateway.address, "GET", "/boom")
                assert status == 500
                assert "kaboom" in body["error"]
            finally:
                gateway.stop()
