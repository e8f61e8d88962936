"""Runtime event tracing: the SCOOP-specific instrumentation of Section 7.

The paper's conclusion names "a SCOOP-specific instrumentation for the
runtime, providing detailed measurements for the internal components" as the
essential next step.  This module provides that instrumentation for the
reproduction's threaded runtime:

* :class:`TraceEvent` — one timestamped, sequence-numbered runtime event
  (reservation, logged call, sync, execution, ...), carrying the client, the
  handler and the reservation (*block*) it belongs to;
* :class:`Tracer` — a thread-safe, bounded recorder the runtime writes into
  when tracing is enabled (``QsRuntime(..., trace=True)``);
* :class:`NullTracer` — the no-op used when tracing is off, so the hot paths
  pay a single attribute check: every request-path ``record``, client's and
  handler's, sits behind ``tracer.enabled``.

Traces serve two purposes.  They feed the guarantee checker in
:mod:`repro.core.guarantees`, which verifies the paper's pre/postcondition
reasoning guarantee on *actual* threaded executions (not just on the formal
semantics), and they power the ``trace`` CLI command and the examples that
want to show what the runtime did.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

#: event kinds emitted by the runtime (kept as plain strings for cheap checks)
EVENT_KINDS = (
    "reserve",        # client inserted its private queue(s) into handler QoQs
    "release",        # client closed the separate block (END enqueued)
    "log-call",       # client logged an asynchronous call
    "log-query",      # client issued a query (before any sync/round trip)
    "sync",           # client performed a sync round trip
    "sync-elided",    # dynamic coalescing skipped a sync round trip
    "exec",           # handler executed a logged asynchronous call
    "exec-query",     # handler executed a packaged query (unoptimized protocol)
    "exec-client",    # client executed a query body locally (modified rule)
    "end-block",      # handler finished draining one private queue
    "wait-retry",     # a wait condition failed and the reservation was retried
)


@dataclass(frozen=True)
class TraceEvent:
    """One instrumented runtime event."""

    seq: int                      #: global sequence number (total order of recording)
    kind: str                     #: one of :data:`EVENT_KINDS`
    handler: str                  #: handler the event concerns
    client: Optional[str] = None  #: client thread/agent name (None for handler-only events)
    feature: Optional[str] = None #: method / feature name, when applicable
    block: Optional[int] = None   #: reservation id (one per separate block per handler)
    timestamp: float = 0.0        #: wall-clock seconds (time.monotonic)
    thread: str = ""              #: OS thread that recorded the event

    def matches(self, **criteria) -> bool:
        """``event.matches(kind="exec", handler="worker-0")`` style filtering."""
        for key, expected in criteria.items():
            if getattr(self, key) != expected:
                return False
        return True

    def __str__(self) -> str:
        parts = [f"#{self.seq}", self.kind, self.handler]
        if self.client:
            parts.append(f"client={self.client}")
        if self.feature:
            parts.append(f"feature={self.feature}")
        if self.block is not None:
            parts.append(f"block={self.block}")
        return " ".join(parts)


class NullTracer:
    """Tracing disabled: every operation is a cheap no-op."""

    enabled = False

    def record(self, kind: str, handler: str, **_kwargs) -> None:
        return None

    def next_block_id(self) -> int:
        # block ids are still handed out so reservation bookkeeping works the
        # same whether or not tracing is on
        return next(_BLOCK_IDS)

    def events(self) -> List[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0


#: process-wide reservation-id source (shared by all runtimes; ids only need
#: to be unique, not dense)
_BLOCK_IDS = itertools.count()


class Tracer:
    """Thread-safe bounded recorder of :class:`TraceEvent` objects."""

    enabled = True

    def __init__(self, max_events: int = 1_000_000) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self._events: List[TraceEvent] = []
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self.dropped = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, kind: str, handler: str, client: Optional[str] = None,
               feature: Optional[str] = None, block: Optional[int] = None) -> Optional[TraceEvent]:
        """Append one event (returns it, or ``None`` if the buffer is full)."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}; expected one of {EVENT_KINDS}")
        event = TraceEvent(
            seq=next(self._seq),
            kind=kind,
            handler=handler,
            client=client,
            feature=feature,
            block=block,
            timestamp=time.monotonic(),
            thread=threading.current_thread().name,
        )
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return None
            self._events.append(event)
        return event

    def next_block_id(self) -> int:
        return next(_BLOCK_IDS)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def events(self, **criteria) -> List[TraceEvent]:
        """All recorded events (optionally filtered by field equality)."""
        with self._lock:
            snapshot = list(self._events)
        if not criteria:
            return snapshot
        return [e for e in snapshot if e.matches(**criteria)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events():
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def per_handler(self) -> Dict[str, List[TraceEvent]]:
        """Events grouped by handler, preserving recording order."""
        out: Dict[str, List[TraceEvent]] = {}
        for event in self.events():
            out.setdefault(event.handler, []).append(event)
        return out

    def format(self, events: Optional[Sequence[TraceEvent]] = None) -> str:
        """Human-readable multi-line rendering (used by the CLI)."""
        events = self.events() if events is None else list(events)
        return "\n".join(str(e) for e in events)
