"""Per-shard queue-depth accounting for admission control.

An admission controller in front of a :class:`~repro.shard.group.ShardedGroup`
needs to answer one question per request: *how loaded is the shard this key
routes to?*  Two signals exist and neither is sufficient alone:

* ``len(handler.qoq)`` — the number of private queues pending in the shard's
  queue-of-queues.  Authoritative where the handler runs in-process
  (threads/sim/async backends), but the process and hybrid backends run the
  handler in a worker process, and the parent-side ``_RemoteQoQ`` files no
  queue locally, so its ``len`` is 0 — the parent cannot see a remote
  queue's depth without a round trip that would itself queue behind the
  load being measured.
* gateway-side *in-flight* accounting — how many admitted requests are
  currently between admission and response for this shard.  Visible on every
  backend because the gateway itself maintains it, but blind to work enqueued
  by clients that bypass the gateway.

:class:`ShardDepthProbe` combines both: ``depth(key)`` is the gateway's
in-flight count for the owning shard plus whatever QoQ backlog is locally
visible.  On in-process backends that over-counts slightly (an in-flight
request's private queue may also be pending in the QoQ) — acceptable for a
load-shedding watermark, where erring toward shedding under pressure is the
point.

Shard identity is tracked by handler *name*, not index, so a concurrent
``rebalance()`` (which can grow, shrink or re-key the shard list) never
mis-attributes a decrement: a request exits against the same name it entered.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Tuple


class ShardDepthProbe:
    """Combined in-flight + visible-backlog depth gauge for one group."""

    def __init__(self, group: Any) -> None:
        self._group = group
        self._lock = threading.Lock()
        self._in_flight: Dict[str, int] = {}

    def enter(self, key: Any) -> str:
        """Record one admitted request for ``key``'s shard; returns a token.

        Pass the token to :meth:`exit` when the request completes (success,
        error or shed-after-admission alike) — the pair must bracket every
        admitted request or the gauge drifts and the controller sheds
        forever.
        """
        shard = self._group.shard_of(key)
        name = self._group.handlers[shard].name
        with self._lock:
            self._in_flight[name] = self._in_flight.get(name, 0) + 1
        return name

    def exit(self, token: str) -> None:
        """Release the in-flight slot taken by :meth:`enter`."""
        with self._lock:
            remaining = self._in_flight.get(token, 0) - 1
            if remaining > 0:
                self._in_flight[token] = remaining
            else:
                self._in_flight.pop(token, None)

    def in_flight(self, key: Any) -> int:
        """Gateway-side in-flight count for ``key``'s shard (every backend)."""
        shard = self._group.shard_of(key)
        name = self._group.handlers[shard].name
        with self._lock:
            return self._in_flight.get(name, 0)

    def depth(self, key: Any) -> int:
        """In-flight plus visible backlog — the admission-control signal."""
        shard = self._group.shard_of(key)
        handler = self._group.handlers[shard]
        with self._lock:
            in_flight = self._in_flight.get(handler.name, 0)
        return in_flight + len(handler.qoq)

    def snapshot(self) -> Tuple[Tuple[str, int], ...]:
        """(handler name, in-flight) pairs for every shard currently loaded."""
        with self._lock:
            return tuple(sorted(self._in_flight.items()))
