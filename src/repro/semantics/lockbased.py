"""Executable semantics of the *original* lock-based SCOOP protocol (Fig. 2).

The paper's starting point is the original SCOOP operational semantics, in
which a client must hold a handler's request lock for the whole separate
block: "the other clients that may want to access the handler's queue must
wait until the current client is finished" (Section 2.1, Fig. 2).  That
model is what makes Fig. 6 deadlock — two clients acquiring the locks of
``x`` and ``y`` in opposite orders — whereas under SCOOP/Qs the same program
cannot deadlock because reservations never block (Section 2.5).

The threaded runtime reproduces that difference operationally (the
``none``/lock-based configuration vs. the QoQ configurations); this module
reproduces it *formally*, with a small-step semantics over the same program
syntax as :mod:`repro.semantics.rules`:

* ``separate X s`` blocks until every handler in ``X`` is unlocked, then
  atomically acquires all of them for the client and schedules the lock
  releases after ``s``;
* ``call``/``query`` execute immediately under the held lock (their
  relative cost is irrelevant to blocking behaviour, which is all this
  model is used for);
* a *deadlock* is a non-terminal state in which no client can step — i.e.
  every remaining client is blocked acquiring a lock another blocked client
  holds.

:class:`LockExplorer` enumerates every interleaving, so the paper's claim
"Fig. 6 will deadlock under some schedules [under the original protocol]"
and its SCOOP/Qs counterpart can both be checked mechanically
(``tests/test_semantics_lockbased.py``, ``examples/deadlock_analysis.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import SemanticsError
from repro.semantics.syntax import Call, Query, Release, Separate, Seq, Skip, Stmt


# ----------------------------------------------------------------------------
# state
# ----------------------------------------------------------------------------
@dataclass(frozen=True)
class LockState:
    """Programs of every client plus the current lock owners."""

    #: client name -> remaining program
    programs: Tuple[Tuple[str, Stmt], ...]
    #: handler name -> owning client ("" = free)
    locks: Tuple[Tuple[str, str], ...]

    # -- constructors ---------------------------------------------------------
    @classmethod
    def initial(cls, programs: Dict[str, Stmt], handlers: Optional[List[str]] = None) -> "LockState":
        handler_names: Set[str] = set(handlers or [])
        for program in programs.values():
            handler_names |= _mentioned_handlers(program)
        return cls(
            programs=tuple(sorted(programs.items())),
            locks=tuple(sorted((h, "") for h in handler_names)),
        )

    # -- accessors -----------------------------------------------------------
    def owner_of(self, handler: str) -> str:
        for name, owner in self.locks:
            if name == handler:
                return owner
        raise SemanticsError(f"unknown handler {handler!r}")

    def with_program(self, client: str, program: Stmt) -> "LockState":
        return replace(
            self,
            programs=tuple((n, program if n == client else p) for n, p in self.programs),
        )

    def with_locks(self, updates: Dict[str, str]) -> "LockState":
        return replace(
            self,
            locks=tuple((h, updates.get(h, owner)) for h, owner in self.locks),
        )

    @property
    def terminal(self) -> bool:
        return all(isinstance(_normalize(p), Skip) for _, p in self.programs)

    def held_by(self, client: str) -> FrozenSet[str]:
        return frozenset(h for h, owner in self.locks if owner == client)

    def __str__(self) -> str:
        programs = " || ".join(f"({n}, {p})" for n, p in self.programs)
        locks = ", ".join(f"{h}->{owner or 'free'}" for h, owner in self.locks)
        return f"{programs} | locks: {locks}"


def _mentioned_handlers(stmt: Stmt) -> Set[str]:
    if isinstance(stmt, Seq):
        return _mentioned_handlers(stmt.first) | _mentioned_handlers(stmt.rest)
    if isinstance(stmt, Separate):
        return set(stmt.targets) | _mentioned_handlers(stmt.body)
    if isinstance(stmt, (Call, Query)):
        return {stmt.target}
    if isinstance(stmt, Release):
        return {stmt.handler}
    return set()


def _normalize(stmt: Stmt) -> Stmt:
    while isinstance(stmt, Seq):
        first = _normalize(stmt.first)
        if isinstance(first, Skip):
            stmt = stmt.rest
            continue
        if first is not stmt.first:
            stmt = Seq(first, stmt.rest)
        break
    return stmt


def _decompose(stmt: Stmt):
    stmt = _normalize(stmt)
    if isinstance(stmt, Seq):
        redex, rebuild = _decompose(stmt.first)

        def rebuild_outer(new: Stmt) -> Stmt:
            rebuilt = rebuild(new)
            if isinstance(_normalize(rebuilt), Skip):
                return _normalize(stmt.rest)
            return _normalize(Seq(rebuilt, stmt.rest))

        return redex, rebuild_outer
    return stmt, _normalize


# ----------------------------------------------------------------------------
# transitions
# ----------------------------------------------------------------------------
@dataclass(frozen=True)
class LockTransition:
    rule: str
    client: str
    state: LockState

    def __str__(self) -> str:
        return f"--{self.rule}@{self.client}--> {self.state}"


def enabled_lock_transitions(state: LockState) -> List[LockTransition]:
    """Every step some client can take under the lock-based protocol."""
    out: List[LockTransition] = []
    for client, program in state.programs:
        redex, rebuild = _decompose(program)
        if isinstance(redex, Skip):
            continue
        if isinstance(redex, Separate):
            owners = [state.owner_of(t) for t in redex.targets]
            if any(owner not in ("", client) for owner in owners):
                continue  # blocked on somebody else's lock
            if any(owner == client for owner in owners):
                # re-reserving a handler you already hold would self-deadlock
                # under the original protocol; treat it as blocked as well
                continue
            releases = [Release(t) for t in redex.targets]
            new_program = rebuild(_seq_all([redex.body, *releases]))
            new_state = state.with_program(client, new_program).with_locks(
                {t: client for t in redex.targets}
            )
            out.append(LockTransition("lock", client, new_state))
        elif isinstance(redex, (Call, Query)):
            if state.owner_of(redex.target) != client:
                raise SemanticsError(
                    f"{client!r} calls {redex.target}.{redex.feature} without holding its lock"
                )
            out.append(LockTransition("apply", client, state.with_program(client, rebuild(Skip()))))
        elif isinstance(redex, Release):
            new_state = state.with_program(client, rebuild(Skip())).with_locks({redex.handler: ""})
            out.append(LockTransition("unlock", client, new_state))
        else:
            raise SemanticsError(f"statement {redex!r} has no meaning under the lock-based protocol")
    return out


def _seq_all(stmts: List[Stmt]) -> Stmt:
    result: Stmt = Skip()
    for stmt in reversed(stmts):
        result = Seq(stmt, result) if not isinstance(result, Skip) else stmt
    return result


# ----------------------------------------------------------------------------
# exploration
# ----------------------------------------------------------------------------
@dataclass
class LockExplorationResult:
    states_visited: int
    terminal_states: List[LockState] = field(default_factory=list)
    deadlock_states: List[LockState] = field(default_factory=list)
    truncated: bool = False

    @property
    def has_deadlock(self) -> bool:
        return bool(self.deadlock_states)


class LockExplorer:
    """Exhaustive exploration of the lock-based protocol's interleavings."""

    def __init__(self, max_states: int = 200_000) -> None:
        self.max_states = max_states

    def explore(self, initial: LockState) -> LockExplorationResult:
        seen: Set[LockState] = {initial}
        frontier: deque[LockState] = deque([initial])
        result = LockExplorationResult(states_visited=0)
        while frontier:
            state = frontier.popleft()
            result.states_visited += 1
            transitions = enabled_lock_transitions(state)
            if not transitions:
                if state.terminal:
                    result.terminal_states.append(state)
                else:
                    result.deadlock_states.append(state)
                continue
            for transition in transitions:
                succ = transition.state
                if succ not in seen:
                    if len(seen) >= self.max_states:
                        result.truncated = True
                        continue
                    seen.add(succ)
                    frontier.append(succ)
        return result


def blocked_clients(state: LockState) -> Dict[str, Tuple[str, str]]:
    """For every blocked client: ``(handler it waits for, client holding it)``."""
    out: Dict[str, Tuple[str, str]] = {}
    for client, program in state.programs:
        redex, _ = _decompose(program)
        if isinstance(redex, Separate):
            for target in redex.targets:
                owner = state.owner_of(target)
                if owner not in ("", client):
                    out[client] = (target, owner)
                    break
    return out


def compare_with_qs(programs: Dict[str, Stmt], handlers: Optional[List[str]] = None,
                    max_states: int = 200_000) -> Dict[str, bool]:
    """Can ``programs`` deadlock under each protocol?

    Returns ``{"lock_based": bool, "qs": bool}`` — the mechanical version of
    the paper's Section 2.5 comparison.  The SCOOP/Qs side reuses the Fig. 3
    semantics and explorer.
    """
    from repro.semantics.explorer import Explorer
    from repro.semantics.state import initial_configuration

    if handlers is None:
        mentioned: Set[str] = set()
        for program in programs.values():
            mentioned |= _mentioned_handlers(program)
        handlers = sorted(mentioned)

    lock_result = LockExplorer(max_states).explore(LockState.initial(programs, handlers))
    qs_result = Explorer(max_states).explore(
        initial_configuration(programs, extra_handlers=handlers)
    )
    return {"lock_based": lock_result.has_deadlock, "qs": qs_result.has_deadlock}
