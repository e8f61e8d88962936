"""Virtual-time cooperative scheduler modelling an ``ncores`` machine.

This is the task-switching layer of the runtime (Section 3).  Tasks are
generators yielding effects (:mod:`repro.sched.tasks`); the scheduler
interprets them under a simple machine model:

* only :class:`~repro.sched.tasks.Compute` effects consume virtual time and
  each occupies exactly one core;
* all other effects (spawns, signals, channel operations) are instantaneous;
* at most ``ncores`` tasks compute simultaneously; further compute requests
  wait for a free core in FIFO order;
* a :class:`~repro.sched.tasks.Handoff` hint promotes a task to the front of
  the core queue and suppresses the context-switch charge for its next
  dispatch, modelling the paper's direct handler-to-client hand-off.

The scheduler doubles as a deadlock detector: if no task can make progress
while blocked tasks remain, :class:`~repro.errors.DeadlockError` is raised
with the list of stuck tasks.

The only scheduling freedom the machine model leaves — which READY task to
step next when several could run — is delegated to a pluggable
:class:`~repro.sched.policy.SchedulingPolicy` (FIFO by default, preserving
the historical schedules bit-exactly).  With ``record_schedule=True`` every
multi-candidate decision is recorded, and the resulting
:class:`~repro.sched.policy.ScheduleTrace` can be replayed exactly via the
replay policy — the substrate of :mod:`repro.explore`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Deque, Generator, List, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sched.policy import Decision, FifoPolicy, ScheduleTrace, SchedulingPolicy
from repro.sched.tasks import (
    Compute,
    Get,
    Handoff,
    Put,
    Signal,
    SimEvent,
    Spawn,
    Task,
    TaskState,
    Wait,
)
from repro.util.counters import Counters


class _Core:
    __slots__ = ("index", "busy_until", "task", "last_task")

    def __init__(self, index: int) -> None:
        self.index = index
        self.busy_until = 0.0
        self.task: Optional[Task] = None
        self.last_task: Optional[Task] = None

    @property
    def free(self) -> bool:
        return self.task is None


class CooperativeScheduler:
    """Discrete-event scheduler for cooperative tasks on ``ncores`` cores."""

    def __init__(self, ncores: int = 1, counters: Optional[Counters] = None,
                 policy: Optional[SchedulingPolicy] = None,
                 record_schedule: bool = False) -> None:
        if ncores < 1:
            raise ValueError("ncores must be >= 1")
        self.ncores = ncores
        self.counters = counters or Counters()
        self.policy: SchedulingPolicy = policy if policy is not None else FifoPolicy()
        self._decisions: Optional[List[Decision]] = [] if record_schedule else None
        # FIFO without recording is exactly the historical behaviour and is
        # the configuration every ordinary sim run uses — keep it on the
        # original O(1)-per-dispatch path (a FifoPolicy *subclass* may
        # override select, so the check is exact)
        self._fifo_fast = type(self.policy) is FifoPolicy and self._decisions is None
        self.now = 0.0
        self._tasks: List[Task] = []
        self._ready: Deque[Task] = deque()
        self._pending_compute: Deque[tuple[Task, float]] = deque()
        self._cores = [_Core(i) for i in range(ncores)]
        self._completions: list[tuple[float, int, int]] = []  # (finish, seq, core index)
        self._seq = itertools.count()
        self._handoff: set[int] = set()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: Optional[str] = None) -> Task:
        """Register a new task; it becomes runnable immediately.

        Default names are numbered per scheduler (not per process) so that
        two runs of the same program produce identical task names — which is
        what lets recorded schedules replay across process lifetimes.
        """
        task = Task(gen, name=name or f"task-{len(self._tasks)}")
        self._tasks.append(task)
        self._ready.append(task)
        return task

    def run(self, max_time: float = math.inf, max_steps: int = 10_000_000) -> float:
        """Run until every task finishes; returns the final virtual time."""
        steps = 0
        while True:
            steps += 1
            if steps > max_steps:
                raise SimulationError(f"scheduler exceeded {max_steps} steps; likely livelock")
            self._drain_instant()
            self._assign_cores()
            if not self._completions:
                blocked = [t for t in self._tasks if t.state is TaskState.BLOCKED]
                if blocked:
                    names = ", ".join(t.name for t in blocked)
                    raise DeadlockError(f"deadlock: tasks blocked forever: {names}")
                return self.now
            finish, _, core_index = heapq.heappop(self._completions)
            if finish > max_time:
                self.now = max_time
                return self.now
            self.now = max(self.now, finish)
            core = self._cores[core_index]
            task = core.task
            core.last_task = task
            core.task = None
            if task is not None:
                task.state = TaskState.READY
                self._ready.append(task)

    @property
    def tasks(self) -> List[Task]:
        return list(self._tasks)

    def recorded_schedule(self, policy_name: Optional[str] = None,
                          seed: Optional[int] = None) -> Optional[ScheduleTrace]:
        """The decisions recorded so far, or ``None`` if recording is off."""
        if self._decisions is None:
            return None
        name = policy_name if policy_name is not None else self.policy.name
        if seed is None:
            seed = getattr(self.policy, "seed", None)
        return ScheduleTrace(policy=name, seed=seed, decisions=list(self._decisions))

    def join_event(self, task: Task) -> SimEvent:
        """Return an event that will be signalled when ``task`` completes."""
        event = SimEvent(name=f"join:{task.name}")
        if task.done:
            event.is_set = True
        else:
            task.waiters.append(event)
        return event

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _drain_instant(self) -> None:
        while self._ready:
            task = self._pick_ready()
            if task is None:
                return
            self._step(task)

    def _pick_ready(self) -> Optional[Task]:
        """Let the policy choose among the runnable tasks (oldest first).

        The ready queue may hold stale entries (tasks that finished or were
        signalled twice); they are pruned here so the policy only ever sees
        genuine candidates.  Single-candidate steps are forced moves: the
        policy is not consulted and nothing is recorded, keeping schedule
        traces minimal.  The default configuration (FIFO, no recording)
        takes the historical popleft fast path — one O(1) pop per dispatch
        rather than a scan of the whole queue.
        """
        if self._fifo_fast:
            while self._ready:
                task = self._ready.popleft()
                if not task.done:
                    return task
            return None
        candidates: List[Task] = []
        seen: set[int] = set()
        for task in self._ready:
            if task.done or task.tid in seen:
                continue
            seen.add(task.tid)
            candidates.append(task)
        if not candidates:
            self._ready.clear()
            return None
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            index = self.policy.select(candidates)
            if not 0 <= index < len(candidates):
                raise SimulationError(
                    f"scheduling policy {self.policy.describe()} returned index {index} "
                    f"for {len(candidates)} candidates"
                )
            chosen = candidates[index]
            self.counters.bump("sched_decisions")
            if self._decisions is not None:
                self._decisions.append(
                    Decision(index=index,
                             candidates=tuple(task.name for task in candidates))
                )
        if chosen is candidates[0]:
            # pop the (possibly stale-prefixed) head, as the old loop did
            while True:
                head = self._ready.popleft()
                if head is chosen:
                    break
        else:
            self._ready.remove(chosen)
        return chosen

    def _step(self, task: Task) -> None:
        """Advance ``task`` until it needs a core, blocks, or finishes."""
        while True:
            try:
                effect = task.gen.send(task.send_value)
            except StopIteration as stop:
                self._finish(task, stop.value)
                return
            except BaseException as exc:
                task.state = TaskState.FAILED
                task.error = exc
                raise SimulationError(f"task {task.name!r} raised {exc!r}") from exc
            task.send_value = None

            if isinstance(effect, Compute):
                task.state = TaskState.READY
                if task.tid in self._handoff:
                    self._pending_compute.appendleft((task, effect.duration))
                else:
                    self._pending_compute.append((task, effect.duration))
                return
            if isinstance(effect, Wait):
                if effect.event.is_set:
                    continue
                effect.event.waiters.append(task)
                task.state = TaskState.BLOCKED
                return
            if isinstance(effect, Signal):
                self._signal(effect.event)
                continue
            if isinstance(effect, Spawn):
                child = self.spawn(effect.gen, name=effect.name)
                task.send_value = child
                continue
            if isinstance(effect, Put):
                channel = effect.channel
                if channel.readers:
                    reader = channel.readers.popleft()
                    reader.send_value = effect.item
                    reader.state = TaskState.READY
                    self._ready.append(reader)
                else:
                    channel.items.append(effect.item)
                continue
            if isinstance(effect, Get):
                channel = effect.channel
                if channel.items:
                    task.send_value = channel.items.popleft()
                    continue
                channel.readers.append(task)
                task.state = TaskState.BLOCKED
                return
            if isinstance(effect, Handoff):
                self._handoff.add(effect.task.tid)
                self.counters.bump("handoffs")
                continue
            raise SimulationError(f"task {task.name!r} yielded unknown effect {effect!r}")

    def _signal(self, event: SimEvent) -> None:
        event.is_set = True
        waiters, event.waiters = event.waiters, []
        for waiter in waiters:
            waiter.state = TaskState.READY
            self._ready.append(waiter)

    def _finish(self, task: Task, result: Any) -> None:
        task.state = TaskState.DONE
        task.result = result
        for event in task.waiters:
            self._signal(event)
        task.waiters = []

    def _assign_cores(self) -> None:
        for core in self._cores:
            if not core.free:
                continue
            if not self._pending_compute:
                break
            task, duration = self._pending_compute.popleft()
            handed_off = task.tid in self._handoff
            if handed_off:
                self._handoff.discard(task.tid)
            elif core.last_task is not None and core.last_task is not task:
                self.counters.bump("context_switches")
            core.task = task
            start = max(self.now, core.busy_until)
            core.busy_until = start + duration
            task.state = TaskState.COMPUTING
            task.last_core = core.index
            heapq.heappush(self._completions, (core.busy_until, next(self._seq), core.index))
