"""Runtime configuration: optimization levels of the SCOOP/Qs runtime.

The paper evaluates five configurations (Section 4):

* ``NONE``     -- no optimizations: lock-based handler protocol, every query
                  is packaged, shipped to the handler and synchronised.
* ``DYNAMIC``  -- dynamic sync coalescing (Section 3.4.1): the private queue
                  remembers whether the handler is already synced and skips
                  redundant round trips.
* ``STATIC``   -- static sync coalescing (Section 3.4.2): an ahead-of-time
                  dataflow pass removes provably-redundant sync operations.
* ``QOQ``      -- the queue-of-queues handler protocol (Section 2.3) without
                  any sync coalescing.
* ``ALL``      -- everything together (the shipping configuration).

:class:`QsConfig` decomposes these named levels into independent feature
flags so the runtime, the compiler and the simulator all agree on what each
level means.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # no runtime import: config must stay dependency-free
    from repro.backends import BackendSpec  # noqa: F401


class OptimizationLevel(enum.Enum):
    """Named optimization configurations evaluated in the paper."""

    NONE = "none"
    DYNAMIC = "dynamic"
    STATIC = "static"
    QOQ = "qoq"
    ALL = "all"

    @classmethod
    def parse(cls, value: "OptimizationLevel | str") -> "OptimizationLevel":
        if isinstance(value, OptimizationLevel):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:  # pragma: no cover - defensive
            valid = ", ".join(level.value for level in cls)
            raise ValueError(f"unknown optimization level {value!r}; expected one of {valid}") from exc


#: Order in which the paper reports optimization columns.
LEVEL_ORDER = (
    OptimizationLevel.NONE,
    OptimizationLevel.DYNAMIC,
    OptimizationLevel.STATIC,
    OptimizationLevel.QOQ,
    OptimizationLevel.ALL,
)


@dataclass(frozen=True)
class QsConfig:
    """Feature flags controlling the runtime behaviour.

    Attributes
    ----------
    use_qoq:
        Use the queue-of-queues protocol (clients enqueue private queues
        without blocking).  When ``False`` the runtime behaves like the
        original lock-based SCOOP: a client must hold the handler's request
        lock for the whole separate block, serialising reservations.
    dynamic_sync_coalescing:
        Track the ``synced`` status of each private queue at runtime and
        elide redundant sync round trips (Section 3.4.1).
    static_sync_coalescing:
        Let the compiler pass remove statically-redundant sync instructions
        (Section 3.4.2).  Only meaningful for programs executed through
        :mod:`repro.compiler`.
    client_executed_queries:
        Execute the body of a query on the client after synchronising with
        the handler (the modified query rule of Section 3.2) rather than
        packaging it and shipping it to the handler.
    private_queue_cache:
        Reuse private queues across separate blocks instead of allocating a
        fresh one each time (Section 3.2).
    qoq_batch:
        Maximum number of requests a handler drains from a private queue per
        blocking acquisition (the batched fast path).  ``1`` restores the
        one-request-per-acquisition behaviour; the default amortises the
        per-request synchronisation cost on busy queues.  A mechanical
        dequeue optimization rather than a protocol change, it is enabled
        at every optimization level except ``NONE`` (which, true to its
        name, runs with nothing at all).
    backend:
        Execution backend the runtime uses: ``"threads"`` (OS threads,
        wall-clock time), ``"sim"`` (deterministic virtual time on the
        cooperative scheduler), ``"process"`` (one OS process per handler
        behind socket private queues; true multi-core parallelism),
        ``"async"`` (handlers and coroutine clients as asyncio tasks on
        one event loop; 10k+ client fan-in) or ``"process+async"`` (the
        hybrid composite: handlers in the process worker pool, clients as
        coroutine tasks across event loops).  Spec components are allowed
        — ``"sim:random:7"``, ``"process:4:json"``,
        ``"process+async:4:2:bin"`` — and a structured
        :class:`~repro.backends.BackendSpec` is accepted wherever a spec
        string is.  See :mod:`repro.backends`.
    sched_policy:
        Ready-queue scheduling policy of the simulated backend (ignored by
        the threaded backend, where the OS schedules): ``"fifo"`` (the
        deterministic default), ``"random"`` or ``"pct"``.  See
        :mod:`repro.sched.policy` and :mod:`repro.explore`.
    sched_seed:
        Seed for the randomized scheduling policies; each seed selects one
        reproducible schedule.
    """

    use_qoq: bool = True
    dynamic_sync_coalescing: bool = True
    static_sync_coalescing: bool = True
    client_executed_queries: bool = True
    private_queue_cache: bool = True
    qoq_batch: int = 16
    backend: "str | BackendSpec" = "threads"
    sched_policy: str = "fifo"
    sched_seed: int = 0
    name: str = "all"
    extras: dict = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------
    # Named levels
    # ------------------------------------------------------------------
    @classmethod
    def from_level(cls, level: "OptimizationLevel | str") -> "QsConfig":
        """Build the feature-flag set corresponding to a paper column."""
        level = OptimizationLevel.parse(level)
        if level is OptimizationLevel.NONE:
            return cls(
                use_qoq=False,
                dynamic_sync_coalescing=False,
                static_sync_coalescing=False,
                client_executed_queries=False,
                private_queue_cache=False,
                qoq_batch=1,
                name=level.value,
            )
        if level is OptimizationLevel.DYNAMIC:
            return cls(
                use_qoq=False,
                dynamic_sync_coalescing=True,
                static_sync_coalescing=False,
                client_executed_queries=True,
                private_queue_cache=False,
                name=level.value,
            )
        if level is OptimizationLevel.STATIC:
            return cls(
                use_qoq=False,
                dynamic_sync_coalescing=False,
                static_sync_coalescing=True,
                client_executed_queries=True,
                private_queue_cache=False,
                name=level.value,
            )
        if level is OptimizationLevel.QOQ:
            return cls(
                use_qoq=True,
                dynamic_sync_coalescing=False,
                static_sync_coalescing=False,
                client_executed_queries=False,
                private_queue_cache=True,
                name=level.value,
            )
        # ALL
        return cls(name=OptimizationLevel.ALL.value)

    @classmethod
    def none(cls) -> "QsConfig":
        return cls.from_level(OptimizationLevel.NONE)

    @classmethod
    def all(cls) -> "QsConfig":
        return cls.from_level(OptimizationLevel.ALL)

    def with_(self, **kwargs) -> "QsConfig":
        """Return a copy with selected flags replaced."""
        return replace(self, **kwargs)

    @property
    def level(self) -> OptimizationLevel:
        """Best-effort mapping back to a named level (for reporting)."""
        for level in LEVEL_ORDER:
            if QsConfig.from_level(level).flag_tuple() == self.flag_tuple():
                return level
        return OptimizationLevel.ALL if self.use_qoq else OptimizationLevel.NONE

    def flag_tuple(self) -> tuple:
        return (
            self.use_qoq,
            self.dynamic_sync_coalescing,
            self.static_sync_coalescing,
            self.client_executed_queries,
            self.private_queue_cache,
        )

    def describe(self) -> str:
        flags = []
        if self.use_qoq:
            flags.append("qoq")
        if self.dynamic_sync_coalescing:
            flags.append("dyn-sync")
        if self.static_sync_coalescing:
            flags.append("static-sync")
        if self.client_executed_queries:
            flags.append("client-query")
        if self.private_queue_cache:
            flags.append("pq-cache")
        if self.qoq_batch > 1:
            flags.append(f"batch={self.qoq_batch}")
        summary = "+".join(flags) if flags else "no optimizations"
        backend = str(self.backend)  # a BackendSpec stringifies to its spec
        if self.sched_policy != "fifo":
            backend += f", sched={self.sched_policy}@{self.sched_seed}"
        return f"QsConfig({self.name}: {summary}, backend={backend})"
