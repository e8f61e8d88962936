"""Operation counters used to instrument the runtime.

Every runtime (threaded, baseline, simulated) records the same set of
counters so that experiments can compare *communication work* across
configurations even when wall-clock time is dominated by the interpreter.
The counters correspond directly to the cost sources discussed in the paper:

* ``async_calls``       -- calls packaged and enqueued (rule *call*)
* ``queries``           -- synchronous queries issued (rule *query*)
* ``sync_roundtrips``   -- sync messages actually sent to a handler
* ``syncs_elided``      -- sync operations skipped by dynamic/static coalescing
* ``qoq_enqueues``      -- private queues inserted into a queue-of-queues
* ``qoq_batch_drains``  -- batched drain passes over a private queue
* ``qoq_batch_size_sum``-- requests drained across all batch passes (the
                           mean batch size is ``sum / drains``)
* ``pq_enqueues``       -- entries inserted into private queues
* ``lock_acquisitions`` -- handler request-lock acquisitions (lock-based mode)
* ``lock_waits``        -- times a client had to wait for the handler lock
* ``context_switches``  -- scheduling hand-offs between tasks
* ``bytes_copied``      -- payload bytes moved between regions
* ``shard_routes``      -- requests routed to a shard by key (repro.shard)
* ``shard_broadcasts``  -- commands fanned out to every shard of a group
* ``shard_gathers``     -- scatter-gather queries issued across a group
* ``reshard_moves``     -- keys migrated between shards by a live rebalance
* ``ring_epoch``        -- ring epoch bumps (= completed rebalances)
* ``shard_failovers``   -- handlers re-pinned onto a surviving worker after
                           a process-backend worker death
* ``journal_checkpoints``      -- handler snapshots the process backend
                           stored, each truncating the failover journal
* ``journal_frames_dropped``   -- journaled frames those truncations freed
* ``journal_checkpoint_errors``-- snapshots a worker could not take (a hosted
                           object stopped being picklable)
* ``serve_requests``    -- HTTP requests accepted by the ``repro serve``
                           gateway (everything that got a response)
* ``serve_shed``        -- requests shed with 503 by admission control
* ``cache_hits``        -- gateway GETs answered from the read-path cache
* ``cache_misses``      -- gateway GETs that had to query the shard
* ``cache_invalidations``-- cache entries dropped by write-through
                           invalidation
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping

COUNTER_NAMES = (
    "async_calls",
    "queries",
    "sync_roundtrips",
    "syncs_elided",
    "qoq_enqueues",
    "qoq_batch_drains",
    "qoq_batch_size_sum",
    "pq_enqueues",
    "lock_acquisitions",
    "lock_waits",
    "context_switches",
    "handoffs",
    "bytes_copied",
    "calls_executed",
    "reservations",
    "multi_reservations",
    "wait_condition_retries",
    "expanded_copies",
    "shard_routes",
    "shard_broadcasts",
    "shard_gathers",
    "reshard_moves",
    "ring_epoch",
    "shard_failovers",
    "journal_checkpoints",
    "journal_frames_dropped",
    "journal_checkpoint_errors",
    "serve_requests",
    "serve_shed",
    "cache_hits",
    "cache_misses",
    "cache_invalidations",
)


@dataclass(frozen=True)
class CounterSnapshot(Mapping):
    """Immutable point-in-time copy of a :class:`Counters` instance."""

    values: Dict[str, int] = field(default_factory=dict)

    def __getitem__(self, key: str) -> int:
        return self.values.get(key, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getattr__(self, key: str) -> int:
        if key in COUNTER_NAMES:
            return self.values.get(key, 0)
        raise AttributeError(key)

    def diff(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Return this snapshot minus an earlier one (per-phase accounting)."""
        keys = set(self.values) | set(earlier.values)
        return CounterSnapshot({k: self.values.get(k, 0) - earlier.values.get(k, 0) for k in keys})

    @property
    def communication_ops(self) -> int:
        """Total number of client<->handler interactions.

        This is the quantity Fig. 16 of the paper plots (communication time);
        in this reproduction it is measured as an operation count and, in the
        simulator, converted into virtual time via a cost model.
        """
        return (
            self["async_calls"]
            + self["sync_roundtrips"]
            + self["qoq_enqueues"]
            + self["lock_acquisitions"]
        )

    def as_dict(self) -> Dict[str, int]:
        return dict(self.values)


class Counters:
    """Thread-safe bag of named monotonic counters."""

    __slots__ = ("_lock", "_values")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    def add(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; amount must be >= 0")
        with self._lock:
            try:
                self._values[name] += amount
            except KeyError:
                self._values[name] = amount

    def bump(self, name: str) -> None:
        # inlined add(name, 1): bump is the request-path hot call and the
        # known names are pre-seeded, so the try never actually raises
        with self._lock:
            try:
                self._values[name] += 1
            except KeyError:
                self._values[name] = 1

    def get(self, name: str) -> int:
        with self._lock:
            return self._values.get(name, 0)

    def count_drain(self, size: int) -> None:
        """One batched drain pass of ``size`` requests: both ``qoq_batch_*``
        counters under one lock (the handler loop's per-batch accounting)."""
        with self._lock:
            values = self._values
            values["qoq_batch_drains"] += 1
            values["qoq_batch_size_sum"] += size

    def snapshot(self) -> CounterSnapshot:
        with self._lock:
            return CounterSnapshot(dict(self._values))

    def nonzero(self) -> Dict[str, int]:
        """The counts that are not zero (what a worker reply and ``/metrics`` carry)."""
        with self._lock:
            return {name: value for name, value in self._values.items() if value}

    def reset(self) -> None:
        with self._lock:
            for key in list(self._values):
                self._values[key] = 0

    def merge(self, other: "Counters | CounterSnapshot") -> None:
        """Accumulate counts from another counter set into this one."""
        values = other.snapshot().values if isinstance(other, Counters) else other.values
        with self._lock:
            for key, value in values.items():
                self._values[key] = self._values.get(key, 0) + value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Counters({self.nonzero()})"
