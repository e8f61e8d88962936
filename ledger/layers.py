"""Per-layer probes: timed calls into each layer's public functions, and the
replay harness that stacks them into one request's budget.

Timings are medians in µs of calls fed the workload's own generated inputs.
Nothing here patches ``repro``: spans wrap the calls from the outside.
"""

from __future__ import annotations

import asyncio
import socket
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import QsRuntime
from repro.queues import CallRequest, PrivateQueue, QueueOfQueues
from repro.queues.codec import CODEC_NAMES, get_codec
from repro.queues.socket_queue import FrameBuffers, FrameStream
from repro.serve.admission import AdmissionController
from repro.serve.app import case_router, create_case_group
from repro.serve.cache import MISS, ReadCache
from repro.serve.http import json_response, read_request
from repro.util.counters import Counters

from ledger import stats
from ledger.traffic import Request

now = time.perf_counter
#: seconds each timing probe may take
PROBE_BUDGET = 0.06
_BATCH = 64


def timed_us(call: Callable[[Any], Any], items: Sequence[Any],
             prepare: Optional[Callable[[], Any]] = None,
             budget: float = PROBE_BUDGET) -> float:
    """Median over batches of the mean time of ``call(item)``, in µs.

    ``prepare`` runs untimed before each batch (to refill what the calls
    consume).  At least five batches run whatever the budget.
    """
    batch = [items[i % len(items)] for i in range(_BATCH)]
    samples: List[float] = []
    deadline = now() + budget
    while len(samples) < 5 or now() < deadline:
        if prepare is not None:
            prepare()
        began = now()
        for item in batch:
            call(item)
        samples.append((now() - began) / _BATCH * 1e6)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# in-memory layers: queues, codec, framing, counters
# ----------------------------------------------------------------------
def queue_probes() -> Dict[str, float]:
    request = CallRequest(fn=int)
    queue = PrivateQueue()
    enqueue = timed_us(queue.enqueue_call, [request],
                       prepare=lambda: queue.dequeue_batch(1 << 20, timeout=0))

    def refill() -> None:
        queue.dequeue_batch(1 << 20, timeout=0)
        for _ in range(_BATCH * 8):
            queue.enqueue_call(request)

    # one call drains eight items, the batch size a busy handler sees
    dequeue = timed_us(lambda _item: queue.dequeue_batch(8, timeout=0), [None],
                       prepare=refill) / 8

    qoq = QueueOfQueues()

    def reserve(private: Any) -> None:
        qoq.enqueue(private)
        qoq.dequeue(timeout=0)

    return {
        "queues.pq.enqueue_us": enqueue,
        "queues.pq.dequeue_batch_us_per_item": dequeue,
        "queues.qoq.enqueue_dequeue_us": timed_us(reserve, [queue]),
    }


def counter_probe() -> Dict[str, float]:
    return {"util.counters.bump_us": timed_us(Counters().bump, ["queries"])}


def block_frames(calls: Sequence[Tuple[str, list]], ticket: int = 7) -> List[Dict[str, Any]]:
    """The frames a client sends a worker for one separate block: the shape
    ``repro.backends.process`` puts on the wire (open, calls, sync, the
    client-executed query as an invoke, end)."""
    frames: List[Dict[str, Any]] = [{"kind": "open", "ticket": ticket, "block": ticket}]
    for feature, args in calls[:-1]:
        frames.append({"kind": "call", "oid": 1, "feature": feature, "args": args,
                       "kwargs": {}})
    feature, args = calls[-1]
    frames += [{"kind": "sync"},
               {"kind": "invoke", "oid": 1, "args": args, "kwargs": {}, "feature": feature},
               {"kind": "end"}]
    return frames


def codec_probes(frames: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name in CODEC_NAMES:
        codec = get_codec(name)
        encoded = [codec.encode(frame) for frame in frames]
        out[f"queues.codec.encode_us.{name}"] = timed_us(codec.encode, frames)
        out[f"queues.codec.decode_us.{name}"] = timed_us(codec.decode, encoded)
        out[f"queues.codec.frame_bytes.{name}"] = sum(map(len, encoded)) / len(encoded)
    return out


def framing_probes(frames: Sequence[Dict[str, Any]], codec: str) -> Dict[str, float]:
    sender = FrameBuffers(codec)
    add_take = timed_us(sender.add_frame, frames, prepare=sender.take_burst)
    for frame in frames:
        sender.add_frame(frame)
    burst, count = sender.take_burst()
    receiver = FrameBuffers(codec)

    def extend_pop(_item: Any) -> None:
        receiver.extend(burst)
        while receiver.pop_frame() is not None:
            pass

    left, right = socket.socketpair()
    try:
        near, far = FrameStream(left, codec), FrameStream(right, codec)
        invoke = next(frame for frame in frames if frame["kind"] == "invoke")
        reply = {"kind": "result", "value": 1}

        def roundtrip(_item: Any) -> None:
            near.send(invoke)
            far.recv()
            far.send(reply)
            near.recv()

        roundtrip_us = timed_us(roundtrip, [None])
    finally:
        left.close()
        right.close()
    return {
        "queues.socket_queue.add_take_us_per_frame": add_take,
        "queues.socket_queue.extend_pop_us_per_frame": timed_us(extend_pop, [None]) / count,
        "queues.socket_queue.roundtrip_us": roundtrip_us,
    }


# ----------------------------------------------------------------------
# the gateway's layers, fed the workload's requests
# ----------------------------------------------------------------------
def _entity(request: Request) -> str:
    return f"case-{request.case}"


def http_router_cache_probes(requests: Sequence[Request], payloads: Sequence[Tuple[int, Any]],
                             cache_entries: int) -> Dict[str, float]:
    async def parse() -> float:
        reader = asyncio.StreamReader()
        batch = [requests[i % len(requests)].raw for i in range(_BATCH)]
        samples = []
        deadline = now() + PROBE_BUDGET
        while len(samples) < 5 or now() < deadline:
            began = now()
            for raw in batch:
                reader.feed_data(raw)
                await read_request(reader)
            samples.append((now() - began) / _BATCH * 1e6)
        return statistics.median(samples)

    router = case_router()
    routes = router.routes

    def tried(request: Request) -> int:
        for index, route in enumerate(routes):
            if route.method == request.method and route.pattern.match(request.path):
                return index + 1
        return len(routes)

    # a cache as full as the gateway's was at the end of the timed window
    gets = [r for r in requests if r.method == "GET"]
    cache = ReadCache()
    for filler in range(cache_entries - len({r.path for r in gets})):
        cache.store(f"filler-{filler}", "/x", 0, (200, {}))
    value = (200, {"id": "case-0", "allegations": []})

    def fill() -> None:
        for request in gets:
            entity = _entity(request)
            cache.store(entity, request.path, cache.begin_read(entity), value)

    fill()
    return {
        "serve.http.parse_us": asyncio.run(parse()),
        "serve.http.format_us": timed_us(lambda sp: json_response(sp[0], sp[1]), payloads),
        "serve.router.resolve_us": timed_us(lambda r: router.resolve(r.method, r.path),
                                            requests),
        "serve.router.patterns_tried_per_req": sum(map(tried, requests)) / len(requests),
        "serve.cache.lookup_us": timed_us(lambda r: cache.lookup(_entity(r), r.path), gets),
        "serve.cache.store_us": timed_us(
            lambda r: cache.store(_entity(r), r.path, cache.begin_read(_entity(r)), value),
            gets),
        "serve.cache.invalidate_us": timed_us(lambda r: cache.invalidate(_entity(r)), gets,
                                              prepare=fill),
    }


def shard_admission_probes(group: Any, requests: Sequence[Request]) -> Dict[str, float]:
    keys = [_entity(request) for request in requests]
    probe = group.depth_probe()
    admission = AdmissionController(probe)
    per_shard = [0] * group.shards
    for key in keys:
        per_shard[group.shard_of(key)] += 1
    return {
        "serve.admission.admit_release_us":
            timed_us(lambda key: admission.release(admission.admit(key)), keys),
        "shard.ref_for_us": timed_us(group.ref_for, keys),
        "shard.depth_us": timed_us(probe.depth, keys),
        "shard.skew": max(per_shard) / (sum(per_shard) / len(per_shard)),
    }


# ----------------------------------------------------------------------
# the replay harness: one request through the gateway's layers, in order
# ----------------------------------------------------------------------
class _Ctx:
    """What route handlers see: the traced sharded ``ask``."""

    def __init__(self, ask: Callable[..., Any]) -> None:
        self.ask = ask
        self.gateway = None


class Replay:
    """Calls, in ``Gateway._respond``'s order, the public functions of each
    layer on the workload's request bytes, with a span around each call."""

    def __init__(self, runtime: Any, group: Any) -> None:
        self.runtime = runtime
        self.group = group
        self.router = case_router()
        self.cache = ReadCache(runtime.counters)
        self.admission = AdmissionController(group.depth_probe(), counters=runtime.counters)
        self.native = bool(getattr(runtime.backend, "supports_async_clients", False))
        self.executor = None if self.native else ThreadPoolExecutor(
            max_workers=group.shards * 4, thread_name_prefix="ledger:dispatch")
        self.spans = stats.SpanLog(enabled=False)
        self.payloads: List[Tuple[int, Any]] = []
        self._op = 0
        self._parent = -1

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True)

    # -- one sharded query, in the backend's dispatch shape -----------------
    def _blocking_ask(self, key: Any, method: str, args: tuple) -> Any:
        spans, op, parent = self.spans, self._op, self._parent
        span = spans.begin("core.block_enter", op, parent)
        block = self.runtime.separate(self.group.ref_for(key))
        proxy = block.__enter__()
        spans.end(span)
        try:
            span = spans.begin("core.query", op, parent)
            value = proxy.ask(method, *args)
            spans.end(span)
        finally:
            span = spans.begin("core.block_exit", op, parent)
            block.__exit__(None, None, None)
            spans.end(span)
        return value

    async def _ask(self, key: Any, method: str, *args: Any) -> Any:
        spans, op = self.spans, self._op
        self._parent = ask_span = spans.begin("serve.gateway.ask", op, self._root)
        try:
            if not self.native:
                return await asyncio.get_running_loop().run_in_executor(
                    self.executor, self._blocking_ask, key, method, args)
            span = spans.begin("core.block_enter", op, ask_span)
            block = self.runtime.aclient().separate(self.group.ref_for(key))
            proxy = await block.__aenter__()
            spans.end(span)
            try:
                span = spans.begin("core.query", op, ask_span)
                value = await proxy.ask(method, *args)
                spans.end(span)
            finally:
                span = spans.begin("core.block_exit", op, ask_span)
                await block.__aexit__(None, None, None)
                spans.end(span)
            return value
        finally:
            spans.end(ask_span)

    # -- the pipeline ---------------------------------------------------------
    async def respond(self, reader: asyncio.StreamReader, raw: bytes) -> bytes:
        spans = self.spans
        self._op = op = self._op + 1
        self._root = root = spans.begin("request", op)
        try:
            span = spans.begin("serve.http.read_request", op, root)
            reader.feed_data(raw)
            request = await read_request(reader)
            spans.end(span)

            span = spans.begin("serve.router.resolve", op, root)
            match = self.router.resolve(request.method, request.path)
            spans.end(span)
            route, entity = match.route, match.entity_key
            cacheable = route.cache

            if cacheable:
                span = spans.begin("serve.cache.lookup", op, root)
                cached = self.cache.lookup(entity, request.path)
                spans.end(span)
                if cached is not MISS:
                    return self._format(op, root, *cached)

            span = spans.begin("serve.admission.admit", op, root)
            ticket = self.admission.admit(entity)
            spans.end(span)
            if ticket is None:
                return self._format(op, root, 503, {"error": "shard overloaded"})
            try:
                epoch = 0
                if cacheable:
                    span = spans.begin("serve.cache.begin_read", op, root)
                    epoch = self.cache.begin_read(entity)
                    spans.end(span)
                status, payload = await route.handler(_Ctx(self._ask), request, **match.params)
                if cacheable and status == 200:
                    span = spans.begin("serve.cache.store", op, root)
                    self.cache.store(entity, request.path, epoch, (status, payload))
                    spans.end(span)
                if request.method != "GET" and status < 400:
                    span = spans.begin("serve.cache.invalidate", op, root)
                    self.cache.invalidate(entity)
                    spans.end(span)
                return self._format(op, root, status, payload)
            finally:
                span = spans.begin("serve.admission.release", op, root)
                self.admission.release(ticket)
                spans.end(span)
        finally:
            spans.end(root)

    def _format(self, op: int, root: int, status: int, payload: Any) -> bytes:
        span = self.spans.begin("serve.http.json_response", op, root)
        response = json_response(status, payload)
        self.spans.end(span)
        if len(self.payloads) < 256:
            self.payloads.append((status, payload))
        return response

    async def replay(self, requests: Sequence[Request], seconds: float,
                     turn: int = 64) -> Dict[bool, Tuple[int, float]]:
        """Replay ``requests`` in a cycle for ``seconds``, ``turn`` requests
        traced then ``turn`` untraced, so both see the same mix and the same
        machine: ``{traced: (requests replayed, per second)}``."""
        reader = asyncio.StreamReader()
        tally = {False: [0, 0.0], True: [0, 0.0]}
        deadline = now() + seconds
        cursor = 0
        traced = False
        while now() < deadline:
            self.spans.enabled = traced = not traced
            began = now()
            for _ in range(turn):
                response = await self.respond(reader, requests[cursor % len(requests)].raw)
                if not response.startswith((b"HTTP/1.1 200", b"HTTP/1.1 201")):
                    raise RuntimeError(f"replayed request answered {response[:12]!r}")
                cursor += 1
            tally[traced][0] += turn
            tally[traced][1] += now() - began
        self.spans.enabled = False
        return {mode: (count, count / busy) for mode, (count, busy) in tally.items()}

    async def preload(self, requests: Sequence[Request]) -> None:
        reader = asyncio.StreamReader()
        for request in requests:
            await self.respond(reader, request.raw)


def run_replay(backend: str, preload: Sequence[Request], requests: Sequence[Request],
               seconds: float, trace_file: str, workload: str) -> Dict[str, Any]:
    """Build a sharded case table on ``backend`` in this process, replay the
    workload traced and untraced by turns, and time the runtime-backed layers."""
    out: Dict[str, Any] = {}
    with QsRuntime(backend=backend) as rt:
        group = create_case_group(rt, shards=4)
        replay = Replay(rt, group)

        async def session() -> None:
            await replay.preload(preload)
            rates = await replay.replay(requests, seconds)
            out["plain"], out["traced"] = rates[False], rates[True]

        try:
            if replay.native:
                # coroutine clients must live on a backend loop
                rt.aclient(session, name="ledger:replay")
                rt.join_clients()
            else:
                asyncio.run(session())
            out["probes"] = shard_admission_probes(group, requests)
        finally:
            replay.close()
    spans = replay.spans
    out["payloads"] = replay.payloads
    out["span_us_median"] = {name: statistics.median(times)
                             for name, times in spans.durations_us().items()}
    out["self_us_median"] = {name: statistics.median(times)
                             for name, times in stats.self_times_us(spans.spans).items()}
    out["spans"] = len(spans.spans)
    if trace_file:
        spans.write(trace_file, workload)
    return out
