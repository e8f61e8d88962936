"""Statement syntax of the SCOOP/Qs operational semantics (Section 2.3).

    s ::= separate x s | call(x, f) | query(x, f)
        | wait h | release h | end | skip

``separate``, ``call`` and ``query`` model SCOOP program instructions; the
rest only appear at runtime.  Statements are immutable and hashable so whole
configurations can be used as states in the interleaving explorer.

Two small extensions make the semantics *executable and checkable* without
changing its behaviour:

* :class:`Feature` is the statement a logged call becomes inside a private
  queue; it records the feature name, the client that logged it and that
  client's reservation (block) id, so traces can be checked against the
  reasoning guarantees of Section 2.2.  A feature steps to ``skip`` in one
  internal step (the handler "executes" it).
* :class:`Separate` carries a tuple of targets, covering both the single
  reservation of Fig. 3 and the generalized multi-reservation rule of
  Section 2.4 with one constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


class Stmt:
    """Base class of all statements (immutable)."""

    __slots__ = ()


@dataclass(frozen=True)
class Skip(Stmt):
    """No behaviour."""

    def __str__(self) -> str:
        return "skip"


@dataclass(frozen=True)
class Separate(Stmt):
    """``separate x1 .. xn s`` — reserve handlers ``targets`` around ``body``."""

    targets: Tuple[str, ...]
    body: Stmt

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("separate needs at least one target handler")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("separate targets must be distinct")

    def __str__(self) -> str:
        return f"separate {' '.join(self.targets)} do {self.body} end"


@dataclass(frozen=True)
class Call(Stmt):
    """``call(x, f)`` — log feature ``feature`` asynchronously on ``target``."""

    target: str
    feature: str

    def __str__(self) -> str:
        return f"{self.target}.{self.feature}()"


@dataclass(frozen=True)
class Query(Stmt):
    """``query(x, f)`` — synchronous call; the client waits for the result."""

    target: str
    feature: str
    #: when True the modified rule of Section 3.2 is used: the body executes
    #: on the client after synchronisation instead of on the handler.
    client_executed: bool = False

    def __str__(self) -> str:
        suffix = " [client-executed]" if self.client_executed else ""
        return f"r := {self.target}.{self.feature}(){suffix}"


@dataclass(frozen=True)
class Wait(Stmt):
    """``wait h`` — block until handler ``handler`` releases us."""

    handler: str
    #: feature to execute locally once released (modified query rule only)
    then_execute: Optional[str] = None
    client: Optional[str] = None
    block: Optional[int] = None

    def __str__(self) -> str:
        extra = f"; {self.then_execute}" if self.then_execute else ""
        return f"wait {self.handler}{extra}"


@dataclass(frozen=True)
class Release(Stmt):
    """``release h`` — unblock the client ``handler`` (placed in a queue)."""

    handler: str

    def __str__(self) -> str:
        return f"release {self.handler}"


@dataclass(frozen=True)
class End(Stmt):
    """``end`` — the current private queue is finished (rule *end*)."""

    def __str__(self) -> str:
        return "end"


@dataclass(frozen=True)
class Seq(Stmt):
    """``s1 ; s2`` — sequential composition."""

    first: Stmt
    rest: Stmt

    def __str__(self) -> str:
        return f"{self.first}; {self.rest}"


@dataclass(frozen=True)
class Feature(Stmt):
    """A logged feature waiting in (or taken from) a private queue."""

    name: str
    client: Optional[str] = None
    block: Optional[int] = None

    def __str__(self) -> str:
        origin = f"@{self.client}" if self.client else ""
        return f"<{self.name}{origin}>"


def seq(*stmts: Stmt) -> Stmt:
    """Right-nested sequential composition of any number of statements."""
    if not stmts:
        return Skip()
    result: Stmt = stmts[-1]
    for stmt in reversed(stmts[:-1]):
        result = Seq(stmt, result)
    return result


def block(*targets_and_body) -> Separate:
    """Sugar: ``block('x', 'y', body_stmt)`` builds a separate block."""
    *targets, body = targets_and_body
    if not isinstance(body, Stmt):
        raise TypeError("the last argument of block() must be a statement")
    return Separate(tuple(str(t) for t in targets), body)
