"""Client-side routing proxies and scatter-gather for sharded groups.

A :class:`ShardedBlock` is the group-wide separate block: it reserves every
shard handler in one atomic multi-reservation (Section 3.3), so the client
gets one private queue per shard and per-shard FIFO for everything it logs.
Inside the block the :class:`ShardedProxy` routes:

* ``proxy.on(key)`` — the owning shard's ordinary
  :class:`~repro.core.separate.ReservedProxy` (``proxy.on(k).deposit(5)``);
* ``proxy.call(key, method, ...)`` / ``proxy.query(key, method, ...)`` —
  explicit routed request operations;
* ``proxy.broadcast(method, ...)`` — log an asynchronous command on every
  shard (commands never wait, so a broadcast costs N enqueues);
* ``proxy.gather(method, ..., merge=fn)`` — scatter-gather query: issue the
  query on every shard first (:meth:`~repro.core.client.Client.issue_query`,
  the issue/wait split), then collect, so the per-shard work overlaps (see
  :meth:`ShardedProxy.gather` for what that is on which backend); the
  optional ``merge`` folds the per-shard results (default: the list in
  shard order).

:class:`AsyncShardedProxy` is the awaitable twin for coroutine clients on
the asyncio backend — same shared protocol engine, with the two waits
awaited (``await proxy.gather(...)``) instead of blocked on.

Routing is **epoch-consistent**: block entry snapshots the group's
topology record under the topology lock, atomically with the reservation,
and the proxy routes every request against that snapshot (its
:attr:`~ShardedProxy.epoch`).  A concurrent
:meth:`~repro.shard.group.ShardedGroup.rebalance` therefore never re-routes
a request inside an open block — blocks are uniformly "before" (old ring,
served before the migration drains) or "after" (new ring, served after the
imported state lands) the reshard.

The routing counters (``shard_routes``, ``shard_broadcasts``,
``shard_gathers``) are bumped client-side only, identically for thread and
coroutine clients, so they take part in backend-parity assertions.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.core.client import Client, PendingQuery, Reservation
from repro.core.separate import ReservedProxy


def _merge(results: List[Any], merge: Optional[Callable[[List[Any]], Any]]) -> Any:
    return merge(results) if merge is not None else results


class ShardedProxy:
    """Routing view of a sharded group inside a (blocking) separate block."""

    __slots__ = ("_group", "_client", "_view")

    def __init__(self, group: Any, client: Client, view: Any = None) -> None:
        self._group = group
        self._client = client
        # out-of-block construction (diagnostics) falls back to the current
        # topology; blocks always pass their reservation-time snapshot
        self._view = view if view is not None else group._state

    @property
    def group(self) -> Any:
        return self._group

    @property
    def shards(self) -> int:
        return len(self._view.refs)

    @property
    def epoch(self) -> int:
        """The ring epoch this block routes against (fixed at reservation)."""
        return self._view.epoch

    def _ref_for(self, key: Any) -> Any:
        return self._view.ref_for_mapped(self._group._map_key(key))

    # -- routing -------------------------------------------------------------
    def on(self, key: Any) -> ReservedProxy:
        """The owning shard's reserved proxy for ``key``."""
        self._client.counters.bump("shard_routes")
        return ReservedProxy(self._ref_for(key), self._client)

    def shard(self, index: int) -> ReservedProxy:
        """Direct access to shard ``index`` (diagnostics / migration code)."""
        return ReservedProxy(self._view.refs[index], self._client)

    def call(self, key: Any, method: str, *args: Any, **kwargs: Any) -> None:
        """Log ``method`` asynchronously on the shard owning ``key``."""
        self._client.counters.bump("shard_routes")
        self._client.call(self._ref_for(key), method, *args, **kwargs)

    def query(self, key: Any, method: str, *args: Any, **kwargs: Any) -> Any:
        """Synchronous query on the shard owning ``key``."""
        self._client.counters.bump("shard_routes")
        return self._client.query(self._ref_for(key), method, *args, **kwargs)

    # -- scatter-gather -------------------------------------------------------
    def broadcast(self, method: str, *args: Any, **kwargs: Any) -> None:
        """Log an asynchronous command on every shard."""
        self._client.counters.bump("shard_broadcasts")
        for ref in self._view.refs:
            self._client.call(ref, method, *args, **kwargs)

    def gather(self, method: str, *args: Any,
               merge: Optional[Callable[[List[Any]], Any]] = None, **kwargs: Any) -> Any:
        """Query every shard in parallel and merge the results.

        All queries are *issued* first, then waited in shard order; the
        wait order makes the unmerged result list deterministic (shard 0
        first) on every backend.  What overlaps is whatever issuing puts on
        the shard: on the process backends the query *bodies* (a body rides
        as its own sync and runs on the shard's worker), in memory the
        packaged bodies, or at level ``all`` the *syncs* — the handlers'
        earlier queued work — after which each client-executed body runs on
        this waiting client, one after the other.
        """
        self._client.counters.bump("shard_gathers")
        pending = [self._client.issue_query(ref, method, *args, **kwargs)
                   for ref in self._view.refs]
        return _merge([p.wait() for p in pending], merge)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<ShardedProxy of {self._group!r} @epoch {self._view.epoch}>"


class ShardedBlock:
    """Context manager reserving every shard of a group atomically."""

    def __init__(self, client: Client, group: Any) -> None:
        self._client = client
        self._group = group
        self._reservations: List[Reservation] = []

    def __enter__(self) -> ShardedProxy:
        group = self._group
        # snapshot + reserve are one atomic step w.r.t. rebalance's swap:
        # the lock orders this block entirely before or after the reshard
        group._topology_lock.acquire()
        try:
            view = group._state
            self._reservations = self._client.reserve(list(view.handlers))
        finally:
            group._topology_lock.release()
        return ShardedProxy(group, self._client, view)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._client.release(self._reservations)
        self._reservations = []


class AsyncShardedProxy:
    """Awaitable routing view for coroutine clients (asyncio backend)."""

    __slots__ = ("_group", "_async_client", "_view")

    def __init__(self, group: Any, async_client: Any, view: Any = None) -> None:
        self._group = group
        self._async_client = async_client
        self._view = view if view is not None else group._state

    @property
    def group(self) -> Any:
        return self._group

    @property
    def shards(self) -> int:
        return len(self._view.refs)

    @property
    def epoch(self) -> int:
        """The ring epoch this block routes against (fixed at reservation)."""
        return self._view.epoch

    @property
    def _counters(self):
        return self._async_client._client.counters

    def _ref_for(self, key: Any) -> Any:
        return self._view.ref_for_mapped(self._group._map_key(key))

    # -- routing -------------------------------------------------------------
    def on(self, key: Any) -> Any:
        """The owning shard's awaitable proxy (``await g.on(k).deposit(5)``)."""
        from repro.core.async_api import AsyncReservedProxy

        self._counters.bump("shard_routes")
        return AsyncReservedProxy(self._ref_for(key), self._async_client)

    def shard(self, index: int) -> Any:
        from repro.core.async_api import AsyncReservedProxy

        return AsyncReservedProxy(self._view.refs[index], self._async_client)

    async def call(self, key: Any, method: str, *args: Any, **kwargs: Any) -> None:
        self._counters.bump("shard_routes")
        await self._async_client.call(self._ref_for(key), method, *args, **kwargs)

    async def query(self, key: Any, method: str, *args: Any, **kwargs: Any) -> Any:
        self._counters.bump("shard_routes")
        return await self._async_client.query(self._ref_for(key), method,
                                              *args, **kwargs)

    # -- scatter-gather -------------------------------------------------------
    async def broadcast(self, method: str, *args: Any, **kwargs: Any) -> None:
        self._counters.bump("shard_broadcasts")
        for ref in self._view.refs:
            await self._async_client.call(ref, method, *args, **kwargs)

    async def gather(self, method: str, *args: Any,
                     merge: Optional[Callable[[List[Any]], Any]] = None, **kwargs: Any) -> Any:
        """Awaitable scatter-gather: issue everywhere, await in shard order."""
        self._counters.bump("shard_gathers")
        pending: List[PendingQuery] = [
            self._async_client.issue_query(ref, method, *args, **kwargs)
            for ref in self._view.refs
        ]
        return _merge([await p.wait_async() for p in pending], merge)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<AsyncShardedProxy of {self._group!r} @epoch {self._view.epoch}>"


class AsyncShardedBlock:
    """``async with`` twin of :class:`ShardedBlock`."""

    def __init__(self, async_client: Any, group: Any) -> None:
        self._async_client = async_client
        self._group = group
        self._reservations: List[Reservation] = []

    async def __aenter__(self) -> AsyncShardedProxy:
        group = self._group
        # same atomic snapshot+reserve as the blocking twin; the critical
        # section never blocks under the QoQ protocol, so holding the lock
        # briefly on the event-loop thread is safe
        group._topology_lock.acquire()
        try:
            view = group._state
            self._reservations = self._async_client._client.reserve(list(view.handlers))
        finally:
            group._topology_lock.release()
        return AsyncShardedProxy(group, self._async_client, view)

    async def __aexit__(self, exc_type, exc, tb) -> None:
        self._async_client._client.release(self._reservations)
        self._reservations = []
