"""SCOOP/Qs: *Efficient and Reasonable Object-Oriented Concurrency* in Python.

This package reproduces the PPoPP 2015 paper by West, Nanz and Meyer:

* :mod:`repro.core`       — the SCOOP/Qs runtime (handlers, separate blocks,
  queue-of-queues, client-executed queries, dynamic sync coalescing);
* :mod:`repro.backends`   — pluggable execution backends: OS threads, the
  deterministic virtual-time simulator, one-process-per-handler sockets,
  or asyncio coroutine clients at 10k+ fan-in (see ``docs/backends.md``);
* :mod:`repro.shard`      — sharded handler groups: one logical object
  partitioned over N handlers with consistent key routing and
  scatter-gather queries (see ``docs/sharding.md``);
* :mod:`repro.queues`     — the queue substrate (one FIFO class under the
  private queues and the queue-of-queues) with the batched drain fast path;
* :mod:`repro.sched`      — the lightweight-task / virtual-time scheduler
  with pluggable scheduling policies and schedule record/replay;
* :mod:`repro.explore`    — concurrency fuzzing over the simulator: seeded
  schedule exploration, failure oracles, trace replay
  (see ``docs/exploring.md``);
* :mod:`repro.semantics`  — the executable operational semantics of Fig. 3;
* :mod:`repro.compiler`   — the IR and the static sync-coalescing pass;
* :mod:`repro.sim`        — the discrete-event performance model and the
  cross-language backends;
* :mod:`repro.workloads`  — the Cowichan and coordination benchmarks;
* :mod:`repro.experiments`— drivers regenerating every table and figure of
  the paper's evaluation;
* :mod:`repro.serve`      — the HTTP gateway over sharded handlers: REST
  routing, read-path cache, admission control and the open-loop load
  generator (see ``docs/serving.md``).

Quickstart::

    from repro import QsRuntime, SeparateObject, command, query

    class Account(SeparateObject):
        def __init__(self, balance=0):
            self.balance = balance

        @command
        def deposit(self, amount):
            self.balance += amount

        @query
        def current_balance(self):
            return self.balance

    with QsRuntime() as rt:
        account = rt.new_handler("bank").create(Account, 100)
        with rt.separate(account) as acc:
            acc.deposit(42)                  # asynchronous
            print(acc.current_balance())     # synchronous -> 142

The same program runs unmodified on either execution backend:

* ``QsRuntime()`` — **threads** (the default): one OS thread per handler
  and client, real parallelism, wall-clock time;
* ``QsRuntime(backend="sim")`` — the **simulator**: deterministic
  cooperative scheduling in virtual time, reproducible schedules, and
  built-in deadlock detection (a hang becomes a ``DeadlockError`` naming
  the stuck participants);
* ``QsRuntime(backend="process")`` — one OS **process** per handler behind
  framed sockets: true multi-core parallelism;
* ``QsRuntime(backend="async")`` — **asyncio** event loops hosting every
  handler, with coroutine clients (``runtime.aclient(coro_fn)`` +
  ``async with rt.aclient().separate(...)``) cheap enough for 10k+
  concurrent fan-in;
* ``QsRuntime(backend="process+async")`` — the process backend with client
  event loops: handlers in a process worker pool, clients as coroutine
  tasks on a multi-loop pool.

Clients of every shape come from one factory pair: ``runtime.client(fn)``
spawns a client (thread or coroutine, following ``fn``'s shape) and
``runtime.client()`` / ``runtime.aclient()`` return the calling thread's /
task's own client.

Backends can also be selected per config (``QsConfig(backend="sim")``),
per process (the ``REPRO_BACKEND`` environment variable), or from the
command line (``repro --backend sim run bank-transfers``).  Install with
``pip install -e .[dev]`` and see the ``Makefile`` for the lint / test /
bench entry points CI uses.

The supported import surface of this top-level package is exactly
``repro.__all__`` (guarded by ``tests/test_public_api.py`` and documented
in ``docs/api.md``); anything deeper is internal and may change without
notice.
"""

from repro.backends import (AsyncBackend, BackendSpec, ExecutionBackend, ProcessBackend,
                            SimBackend, ThreadedBackend, create_backend)
from repro.config import LEVEL_ORDER, OptimizationLevel, QsConfig
from repro.core import (
    Expanded,
    ExpandedView,
    Handler,
    LockBasedRuntime,
    QsRuntime,
    ReservedProxy,
    SeparateObject,
    SeparateRef,
    WaitOutcome,
    WaitStrategy,
    assert_guarantees,
    check_runtime,
    command,
    expanded_view,
    lock_based_runtime,
    qs_runtime,
    query,
    register_expanded,
)
from repro.core.async_api import AsyncClient, AsyncReservedProxy, AsyncSeparateBlock
from repro.shard import (AsyncShardedProxy, ReshardPlan, ShardTopology, ShardedGroup,
                         ShardedProxy)
from repro.errors import (
    DeadlockError,
    NotReservedError,
    QueryFailedError,
    ReservationError,
    ScoopError,
    SeparateAccessError,
    WaitConditionTimeout,
)
from repro.util.tracing import TraceEvent, Tracer

__version__ = "1.0.0"

# The curated public surface.  Grouped, alphabetical within each group;
# tests/test_public_api.py pins the exact set so it cannot drift silently
# (extending it is a deliberate act: update the golden list and docs/api.md
# in the same change).
__all__ = [
    # runtime + configuration
    "LEVEL_ORDER",
    "LockBasedRuntime",
    "OptimizationLevel",
    "QsConfig",
    "QsRuntime",
    "lock_based_runtime",
    "qs_runtime",
    # execution backends
    "AsyncBackend",
    "BackendSpec",
    "ExecutionBackend",
    "ProcessBackend",
    "SimBackend",
    "ThreadedBackend",
    "create_backend",
    # the blocking client surface
    "Handler",
    "ReservedProxy",
    "SeparateObject",
    "SeparateRef",
    "command",
    "query",
    # the awaitable client surface
    "AsyncClient",
    "AsyncReservedProxy",
    "AsyncSeparateBlock",
    # sharding
    "AsyncShardedProxy",
    "ReshardPlan",
    "ShardTopology",
    "ShardedGroup",
    "ShardedProxy",
    # expanded (by-value) types
    "Expanded",
    "ExpandedView",
    "expanded_view",
    "register_expanded",
    # wait conditions, tracing, guarantee checking
    "TraceEvent",
    "Tracer",
    "WaitOutcome",
    "WaitStrategy",
    "assert_guarantees",
    "check_runtime",
    # error types
    "DeadlockError",
    "NotReservedError",
    "QueryFailedError",
    "ReservationError",
    "ScoopError",
    "SeparateAccessError",
    "WaitConditionTimeout",
    # metadata
    "__version__",
]
