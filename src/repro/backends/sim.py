"""The simulated execution backend: deterministic virtual-time execution.

:class:`SimBackend` runs the *same* ``SeparateObject`` programs as the
threaded backend, but under the repo's discrete-event
:class:`~repro.sched.scheduler.CooperativeScheduler`:

* every handler and every spawned client becomes a scheduler *task*;
* exactly one of them executes at any real instant, and the scheduler picks
  which one using a deterministic FIFO policy, so a run is exactly
  reproducible (same schedule, same virtual times, same counters);
* waiting (sync release, query results, reservation locks, joins) happens in
  *virtual* time via :class:`~repro.sched.tasks.Wait`/``Signal`` effects;
* if every task is blocked the scheduler raises
  :class:`~repro.errors.DeadlockError` naming the stuck tasks — a hang under
  the threaded backend becomes an immediate, debuggable error here.

How plain blocking code becomes a cooperative task
--------------------------------------------------
The runtime's clients and handlers are ordinary imperative Python (separate
blocks, blocking queries) — they cannot yield effects themselves.  The
backend therefore pairs every participant with a *bridge*: the participant
runs on a real (gated) thread, and a tiny generator — its *shadow task* —
represents it inside the scheduler.  When the scheduler steps the shadow
task, the real thread is allowed to run until its next backend operation
(wait, signal, compute, ...), which it hands to the shadow to yield as an
effect.  The scheduler thread and the bridge threads hand control back and
forth synchronously, so at most one of them is ever runnable — execution is
serialised and therefore deterministic, while the user code keeps its
natural blocking style.

Virtual time advances through a small cost model: every enqueue/notify
charges ``op_cost`` and every request a handler drains charges ``exec_cost``
(per request) as :class:`~repro.sched.tasks.Compute` effects, which also
gives every task a fair, deterministic preemption point.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.backends.base import ClientHandle, ExecutionBackend
from repro.errors import ScoopError
from repro.queues.qoq import SHUTDOWN
from repro.sched.policy import ScheduleTrace, SchedulingPolicy, make_policy
from repro.sched.scheduler import CooperativeScheduler
from repro.sched.tasks import Compute, Signal, SimEvent, Task, TaskState, Wait


class _Bridge:
    """Pairs a real (gated) thread with its shadow task in the scheduler.

    Protocol: the shadow generator opens the ``started`` gate the first time
    the scheduler steps it, then loops — block (a *real* block, holding the
    scheduler thread) until the bridge thread publishes its next effect,
    yield that effect to the scheduler, and resume the bridge thread once
    the scheduler has processed it.  ``finish`` ends the shadow task.
    """

    __slots__ = ("name", "task", "thread", "started", "_effect_ready", "_resume",
                 "_effect", "_result", "_done", "_error")

    def __init__(self, name: str) -> None:
        self.name = name
        self.task: Optional[Task] = None
        self.thread: Optional[threading.Thread] = None
        self.started = threading.Event()
        self._effect_ready = threading.Event()
        self._resume = threading.Event()
        self._effect: Any = None
        self._result: Any = None
        self._done = False
        self._error: Optional[BaseException] = None

    # -- called from the bridge (real) thread ---------------------------
    def perform(self, effect: Any) -> Any:
        """Hand ``effect`` to the scheduler; block until it was processed."""
        self._effect = effect
        self._effect_ready.set()
        self._resume.wait()
        self._resume.clear()
        if self._error is not None:
            raise self._error
        return self._result

    def finish(self) -> None:
        """The bridge thread is done; let the shadow task terminate."""
        self._done = True
        self._effect_ready.set()

    def fail(self, error: BaseException) -> None:
        """Unblock the bridge thread with ``error`` (scheduler died)."""
        self._error = error
        self.started.set()
        self._resume.set()

    # -- the shadow task (runs on the scheduler thread) ------------------
    def shadow(self):
        self.started.set()
        while True:
            self._effect_ready.wait()
            self._effect_ready.clear()
            if self._done:
                return None
            self._result = yield self._effect
            self._resume.set()


class SimEventHandle:
    """``threading.Event`` lookalike living in virtual time."""

    __slots__ = ("_backend", "_event")

    def __init__(self, backend: "SimBackend", name: str = "") -> None:
        self._backend = backend
        self._event = SimEvent(name)

    def wait(self, timeout: Optional[float] = None) -> bool:
        # timeouts are meaningless under virtual time: either the event gets
        # signalled, or the scheduler reports the deadlock
        self._backend._perform(Wait(self._event))
        return True

    def set(self) -> None:
        self._backend._perform(Signal(self._event))

    def is_set(self) -> bool:
        return self._event.is_set

    def clear(self) -> None:
        self._event.reset()


class SimLock:
    """Cooperative FIFO mutex; waiters block in virtual time.

    Execution under the sim backend is serialised, so the lock state itself
    needs no atomic operations — only the *waiting* has to go through the
    scheduler to keep the deadlock detector informed.
    """

    __slots__ = ("_backend", "_locked", "_waiters")

    def __init__(self, backend: "SimBackend") -> None:
        self._backend = backend
        self._locked = False
        self._waiters: Deque[SimEvent] = deque()

    def acquire(self, blocking: bool = True) -> bool:
        if not self._locked:
            self._locked = True
            return True
        if not blocking:
            return False
        handoff = SimEvent(name="lock-handoff")
        self._waiters.append(handoff)
        # ownership is transferred by release(); when the wait returns the
        # lock is already ours
        self._backend._perform(Wait(handoff))
        return True

    def release(self) -> None:
        if not self._locked:
            raise RuntimeError("release of an unlocked SimLock")
        if self._waiters:
            self._backend._perform(Signal(self._waiters.popleft()))
        else:
            self._locked = False

    def locked(self) -> bool:
        return self._locked


class SimClientHandle(ClientHandle):
    """Joinable handle for a simulated client (``join`` waits virtually)."""

    def __init__(self, backend: "SimBackend", bridge: _Bridge) -> None:
        self._backend = backend
        self._bridge = bridge

    def join(self, timeout: Optional[float] = None) -> None:
        self._backend._join_bridge(self._bridge)

    @property
    def name(self) -> str:
        return self._bridge.name


class SimBackend(ExecutionBackend):
    """Deterministic virtual-time execution on the cooperative scheduler."""

    name = "sim"

    def __init__(self, ncores: int = 4, op_cost: float = 1.0, exec_cost: float = 1.0,
                 max_steps: int = 10_000_000,
                 policy: "SchedulingPolicy | str | None" = None,
                 seed: Optional[int] = None,
                 record_schedule: bool = False) -> None:
        self.ncores = ncores
        self.op_cost = op_cost
        self.exec_cost = exec_cost
        self.max_steps = max_steps
        #: scheduling policy: an instance, a name ("fifo", "random", "pct"),
        #: or None to fall back to the runtime config at attach time
        self._policy_spec = policy
        self._seed = seed
        self.record_schedule = record_schedule
        self.runtime: Any = None
        self.policy: Optional[SchedulingPolicy] = None
        self.scheduler: Optional[CooperativeScheduler] = None
        self._sched_thread: Optional[threading.Thread] = None
        self._local = threading.local()
        self._bridges: List[_Bridge] = []
        self._main_bridge: Optional[_Bridge] = None
        self._error: Optional[BaseException] = None
        self._started = False
        self._finished = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, runtime: Any) -> None:
        if self._started:
            raise ScoopError("a SimBackend instance cannot be attached twice; "
                             "create a fresh backend per runtime")
        self.runtime = runtime
        self._started = True
        counters = runtime.counters if runtime is not None else None
        config = getattr(runtime, "config", None)
        # resolution order mirrors the backend itself: explicit constructor
        # argument first, then the runtime's QsConfig, then the FIFO default
        policy_spec = self._policy_spec
        seed = self._seed
        if policy_spec is None and config is not None:
            policy_spec = config.sched_policy
        if seed is None:
            seed = config.sched_seed if config is not None else 0
        self.policy = make_policy(policy_spec, seed=seed)
        self.scheduler = CooperativeScheduler(ncores=self.ncores, counters=counters,
                                              policy=self.policy,
                                              record_schedule=self.record_schedule)
        # the constructing thread becomes the first simulated participant
        bridge = _Bridge("main")
        bridge.thread = threading.current_thread()
        self._bridges.append(bridge)
        self._local.bridge = bridge
        self._main_bridge = bridge
        self._main_bridge.task = self.scheduler.spawn(self._main_bridge.shadow(), name="main")
        self._sched_thread = threading.Thread(target=self._run_scheduler,
                                              name="sim-scheduler", daemon=True)
        self._sched_thread.start()
        # once the gate opens the scheduler thread is parked inside our
        # shadow task, waiting for this thread's first effect — from here on
        # at most one participant thread is ever runnable
        self._main_bridge.started.wait()

    def shutdown(self, timeout: float = 10.0) -> None:
        if not self._started or self._finished:
            return
        self._finished = True
        self._main_bridge.finish()
        if self._sched_thread is not None:
            self._sched_thread.join(timeout=timeout)

    def _run_scheduler(self) -> None:
        try:
            self.scheduler.run(max_steps=self.max_steps)
        except BaseException as exc:
            self._error = exc
            for bridge in list(self._bridges):
                bridge.fail(self._fresh_error())

    def _fresh_error(self) -> BaseException:
        # each blocked thread gets its own exception instance (sharing one
        # object across threads would interleave tracebacks)
        err = self._error
        try:
            return type(err)(*err.args)
        except Exception:  # pragma: no cover - exotic exception signature
            return ScoopError(str(err))

    # ------------------------------------------------------------------
    # bridging
    # ------------------------------------------------------------------
    def _current_bridge(self) -> _Bridge:
        bridge = getattr(self._local, "bridge", None)
        if bridge is None:
            raise ScoopError(
                "this thread is not part of the simulation; under the sim "
                "backend only the creating thread, handlers and clients "
                "spawned through the runtime may interact with it"
            )
        return bridge

    def _perform(self, effect: Any) -> Any:
        if self._error is not None:
            raise self._fresh_error()
        return self._current_bridge().perform(effect)

    def _spawn_bridge(self, name: str, fn: Callable[[], None]) -> _Bridge:
        """Run ``fn`` on a gated thread represented by a new shadow task."""
        bridge = _Bridge(name)
        self._bridges.append(bridge)

        def _thread_main() -> None:
            self._local.bridge = bridge
            bridge.started.wait()
            try:
                if bridge._error is None:
                    fn()
            except BaseException as exc:
                # scheduler-propagated failures (deadlock) were already
                # reported through every blocked participant; anything else
                # must not die silently
                if self._error is None:
                    raise
                if type(exc) is not type(self._error):
                    raise
            finally:
                bridge.finish()

        thread = threading.Thread(target=_thread_main, name=name, daemon=True)
        bridge.thread = thread
        bridge.task = self.scheduler.spawn(bridge.shadow(), name=name)
        thread.start()
        return bridge

    def _join_bridge(self, bridge: _Bridge) -> None:
        if self._error is not None:
            raise self._fresh_error()
        self._perform(Wait(self.scheduler.join_event(bridge.task)))

    # ------------------------------------------------------------------
    # synchronisation primitives
    # ------------------------------------------------------------------
    def create_event(self) -> SimEventHandle:
        return SimEventHandle(self)

    def create_lock(self) -> SimLock:
        return SimLock(self)

    def now(self) -> float:
        return self.scheduler.now if self.scheduler is not None else 0.0

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._perform(Compute(seconds))

    # ------------------------------------------------------------------
    # handler plumbing
    # ------------------------------------------------------------------
    def start_handler(self, handler: Any) -> None:
        handler._sim_wake = SimEvent(name=f"wake:{handler.name}")
        bridge = self._spawn_bridge(f"handler:{handler.name}", handler._loop)
        handler._sim_bridge = bridge
        # bind ownership to the gated thread the loop runs on, so the
        # SeparateObject access checks keep working unchanged
        handler._thread = bridge.thread
        handler.owner.bind_thread(bridge.thread)

    def stop_handler(self, handler: Any, timeout: float = 5.0) -> None:
        if self._error is not None:
            return
        bridge = getattr(handler, "_sim_bridge", None)
        if bridge is None:
            return
        # the stop flag is set and the queue-of-queues closed by the caller;
        # wake the loop so it can observe both, then wait for it virtually
        self._perform(Signal(handler._sim_wake))
        self._join_bridge(bridge)

    def handler_next_queue(self, handler: Any) -> Optional[Any]:
        wake: SimEvent = handler._sim_wake
        while True:
            private_queue = handler.qoq.try_dequeue()
            if private_queue is SHUTDOWN:
                return None
            if private_queue is not None:
                return private_queue
            if wake.is_set:
                wake.reset()
                continue
            self._perform(Wait(wake))
            wake.reset()

    def handler_next_batch(self, handler: Any, private_queue: Any,
                           max_items: int) -> Optional[List[Any]]:
        wake: SimEvent = handler._sim_wake
        while True:
            batch = private_queue.dequeue_batch(max_items, timeout=0.0)
            if batch:
                # draining is where a handler spends its virtual time
                self._perform(Compute(self.exec_cost * len(batch)))
                return batch
            if handler.abandons(private_queue):
                return None
            if wake.is_set:
                wake.reset()
                continue
            self._perform(Wait(wake))
            wake.reset()

    def notify_handler(self, handler: Any) -> None:
        wake = getattr(handler, "_sim_wake", None)
        if wake is None:
            return
        self._perform(Signal(wake))
        # charging the communication cost *after* the signal lets the
        # handler's processing overlap with the client's next step in
        # virtual time, like the asynchronous protocol intends
        self._perform(Compute(self.op_cost))

    def block_ended_inline(self) -> None:
        # no notify to charge, but still a preemption point: a client
        # polling in inline blocks would otherwise never let another run
        self._perform(Compute(self.op_cost))

    # ------------------------------------------------------------------
    # client plumbing
    # ------------------------------------------------------------------
    def spawn_client(self, fn: Callable[[], None], name: Optional[str] = None) -> SimClientHandle:
        bridge = self._spawn_bridge(name or "client", fn)
        return SimClientHandle(self, bridge)

    def join_client(self, handle: Any, timeout: Optional[float] = None) -> None:
        self._join_bridge(handle._bridge)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def virtual_time(self) -> float:
        """Final (or current) virtual time of the simulation."""
        return self.now()

    def schedule_trace(self) -> List[Tuple[str, str]]:
        """(task name, state) pairs — a compact reproducibility fingerprint."""
        if self.scheduler is None:
            return []
        return [(task.name, task.state.value) for task in self.scheduler.tasks]

    def schedule_recording(self) -> Optional[ScheduleTrace]:
        """The recorded dispatch decisions (``record_schedule=True`` only)."""
        if self.scheduler is None:
            return None
        return self.scheduler.recorded_schedule()

    def stuck_tasks(self) -> List[str]:
        """Names of the tasks blocked right now (after a deadlock: forever)."""
        if self.scheduler is None:
            return []
        return sorted(t.name for t in self.scheduler.tasks if t.state is TaskState.BLOCKED)
