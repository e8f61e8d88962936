"""The HTTP gateway: connections in, sharded QoQ dispatch out.

``Gateway`` binds an ``asyncio.start_server`` HTTP/1.1 front-end to a
:class:`~repro.shard.group.ShardedGroup` through a declarative
:class:`~repro.serve.router.Router`.  Per request it runs the gateway
pipeline: route → read-path cache (:mod:`repro.serve.cache`) → admission
control (:mod:`repro.serve.admission`) → sharded dispatch → write-through
invalidation.

Two dispatch modes cover all real-time backends (the sim backend runs in
virtual time and is rejected):

* **async-native** — on backends with coroutine clients (``async``,
  ``process+async``) the whole server runs as one coroutine client spawned
  with ``runtime.aclient`` on a backend loop; every accepted connection is
  a task on that loop carrying its own
  :class:`~repro.core.async_api.AsyncClient`, and dispatch awaits the
  sharded query through the awaitable separate block.  This placement
  matters: the hybrid backend's reply futures are created on the running
  loop and resolved by per-loop reader tasks, so gateway coroutines must
  live on a backend loop, not a private one.
* **executor** — on blocking backends (``threads``, ``process``) the
  gateway owns a private event loop on a dedicated thread for the socket
  side, and dispatches each sharded operation to a small thread pool whose
  workers run ordinary blocking separate blocks (each worker thread gets
  its per-thread :class:`~repro.core.client.Client` on first use).

Either way the QoQ guarantees the gateway relies on are the same: a
query's synchronous round trip means a 2xx response implies the shard
executed the operation (read-your-writes), and per-client FIFO means one
connection's operations on one case apply in request order.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Tuple

from repro.errors import ScoopError
from repro.serve.admission import DEFAULT_WATERMARK, AdmissionController
from repro.serve.cache import MISS, ReadCache
from repro.serve.http import BadRequest, HttpRequest, json_response, read_request
from repro.serve.router import Match, Router

_WRITE_METHODS = ("PUT", "POST", "DELETE", "PATCH")


class _Ops:
    """What route handlers see as ``ctx``: sharded ops + the gateway."""

    __slots__ = ("gateway", "_ask")

    def __init__(self, gateway: "Gateway", ask: Callable[..., Any]) -> None:
        self.gateway = gateway
        self._ask = ask

    async def ask(self, key: Any, method: str, *args: Any) -> Any:
        """One synchronous query on the shard owning ``key``."""
        return await self._ask(key, method, *args)


class Gateway:
    """HTTP/1.1 front-end over one sharded group (see module docstring)."""

    def __init__(self, runtime: Any, group: Any, router: Optional[Router] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 watermark: int = DEFAULT_WATERMARK,
                 cache: "ReadCache | bool" = True) -> None:
        if runtime.backend.name == "sim":
            raise ScoopError(
                "the sim backend runs in virtual time and cannot host a real "
                "socket server; serve on threads, process, async or "
                "process+async")
        self.runtime = runtime
        self.group = group
        self.router = router if router is not None else _default_router()
        if cache is True:
            cache = ReadCache(runtime.counters)
        self.cache: Optional[ReadCache] = cache or None
        self.probe = group.depth_probe()
        self.admission = AdmissionController(self.probe, watermark=watermark,
                                             counters=runtime.counters)
        self._native = bool(getattr(runtime.backend, "supports_async_clients", False)
                            and runtime.config.use_qoq)
        self._host = host
        self._requested_port = port
        self._conn_seq = itertools.count()

        self._started = False
        self._stopped = False
        self._ready = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._bound: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._writers: set = set()
        self._handle: Any = None                 # native: AsyncClientHandle
        self._own_loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._main_future: Any = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self._bound is None:
            raise ScoopError("the gateway is not listening; call start() first")
        return self._bound

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def mode(self) -> str:
        return "async-native" if self._native else "executor"

    def start(self, timeout: float = 10.0) -> "Gateway":
        """Bind and serve; returns once the port is accepting connections."""
        if self._started:
            raise ScoopError("the gateway has already been started")
        self._started = True
        if self._native:
            self._handle = self.runtime.aclient(self._serve_main, name="serve:gateway")
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=min(32, max(8, self.group.shards * 4)),
                thread_name_prefix="serve:dispatch")
            self._own_loop = asyncio.new_event_loop()
            self._thread = threading.Thread(target=self._run_own_loop,
                                            name="serve:gateway-loop", daemon=True)
            self._thread.start()
            self._main_future = asyncio.run_coroutine_threadsafe(
                self._serve_main(), self._own_loop)
        if not self._ready.wait(timeout):
            raise ScoopError("the gateway did not start listening in time")
        if self._start_error is not None:
            raise ScoopError("the gateway failed to bind") from self._start_error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting, close open connections, release the resources."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._native:
            if self._handle is not None:
                self.runtime.backend.join_client(self._handle, timeout=timeout)
        else:
            if self._main_future is not None:
                self._main_future.result(timeout)
            if self._own_loop is not None:
                self._own_loop.call_soon_threadsafe(self._own_loop.stop)
            if self._thread is not None:
                self._thread.join(timeout)
                if not self._thread.is_alive():
                    self._own_loop.close()
            if self._executor is not None:
                self._executor.shutdown(wait=False)

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def health(self) -> dict:
        return {
            "status": "ok",
            "backend": self.runtime.backend.name,
            "mode": self.mode,
            "shards": self.group.shards,
            "ring_epoch": self.group.epoch,
            "watermark": self.admission.watermark,
            "in_flight": dict(self.probe.snapshot()),
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    # ------------------------------------------------------------------
    # server loop
    # ------------------------------------------------------------------
    def _run_own_loop(self) -> None:
        asyncio.set_event_loop(self._own_loop)
        self._own_loop.run_forever()

    async def _serve_main(self) -> None:
        try:
            server = await asyncio.start_server(
                self._handle_connection, self._host, self._requested_port)
        except BaseException as exc:
            self._start_error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        sock = server.sockets[0].getsockname()
        self._bound = (sock[0], sock[1])
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for writer in list(self._writers):
                writer.close()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = next(self._conn_seq)
        if self._native:
            from repro.core.async_api import AsyncClient, bind_async_client

            client = AsyncClient(self.runtime, name=f"serve:conn-{conn}")
            bind_async_client(client)

            async def ask(key: Any, method: str, *args: Any) -> Any:
                async with client.separate(self.group.ref_for(key)) as proxy:
                    return await proxy.ask(method, *args)
        else:
            loop = asyncio.get_running_loop()

            def blocking(key: Any, method: str, args: tuple) -> Any:
                with self.runtime.separate(self.group.ref_for(key)) as proxy:
                    return proxy.ask(method, *args)

            async def ask(key: Any, method: str, *args: Any) -> Any:
                return await loop.run_in_executor(
                    self._executor, blocking, key, method, args)

        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except EOFError:
                    break
                except BadRequest as exc:
                    writer.write(json_response(400, {"error": str(exc)},
                                               keep_alive=False))
                    await writer.drain()
                    break
                response = await self._respond(request, ask)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            # the peer vanished mid-request or mid-response; any dispatched
            # operation has already completed on its shard (queries are
            # synchronous), so dropping the connection loses only the bytes
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    # ------------------------------------------------------------------
    # the request pipeline
    # ------------------------------------------------------------------
    async def _respond(self, request: HttpRequest, ask: Callable[..., Any]) -> bytes:
        counters = self.runtime.counters
        counters.bump("serve_requests")
        keep = request.keep_alive

        resolved = self.router.resolve(request.method, request.path)
        if resolved is None:
            return json_response(404, {"error": "no route", "path": request.path},
                                 keep_alive=keep)
        if resolved == 405:
            return json_response(405, {"error": "method not allowed",
                                       "method": request.method,
                                       "path": request.path}, keep_alive=keep)
        assert isinstance(resolved, Match)
        route, params = resolved.route, resolved.params
        entity = resolved.entity_key
        ctx = _Ops(self, ask)
        cacheable = (route.cache and self.cache is not None and entity is not None)

        # cache hits never touch the shard, so they are served even when the
        # shard is past its admission watermark — that is the cache's job
        if cacheable:
            cached = self.cache.lookup(entity, request.path)
            if cached is not MISS:
                status, payload = cached
                return json_response(status, payload, keep_alive=keep)

        ticket = None
        if entity is not None:
            ticket = self.admission.admit(entity)
            if ticket is None:
                return json_response(
                    503, {"error": "shard overloaded", "entity": entity},
                    keep_alive=keep, extra_headers={"Retry-After": "1"})
        try:
            epoch = self.cache.begin_read(entity) if cacheable else 0
            try:
                status, payload = await route.handler(ctx, request, **params)
            except BadRequest as exc:
                return json_response(400, {"error": str(exc)}, keep_alive=keep)
            except Exception as exc:
                return json_response(500, {"error": f"{type(exc).__name__}: {exc}"},
                                     keep_alive=keep)
            if cacheable and status == 200:
                self.cache.store(entity, request.path, epoch, (status, payload))
            if (entity is not None and self.cache is not None
                    and request.method in _WRITE_METHODS and status < 400):
                self.cache.invalidate(entity)
            return json_response(status, payload, keep_alive=keep)
        finally:
            self.admission.release(ticket)


def _default_router() -> Router:
    from repro.serve.app import case_router

    return case_router()


def serve_cases(runtime: Any, shards: int = 4, host: str = "127.0.0.1",
                port: int = 0, watermark: int = DEFAULT_WATERMARK,
                cache: bool = True) -> Gateway:
    """Wire the case portal end to end and start it; returns the gateway."""
    from repro.serve.app import create_case_group

    group = create_case_group(runtime, shards=shards)
    gateway = Gateway(runtime, group, host=host, port=port, watermark=watermark,
                      cache=cache)
    return gateway.start()
