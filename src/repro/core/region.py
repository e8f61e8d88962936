"""Separate objects, handler ownership and data-race detection.

SCOOP associates every object with exactly one *handler* (its thread of
execution); all access to the object must go through that handler, which is
what excludes data races by construction (Section 2.1).  Python cannot
enforce this statically, so this module enforces it dynamically:

* :class:`SeparateObject` is an opt-in base class whose attribute accesses
  verify that the accessing thread is allowed to touch the object, raising
  :class:`~repro.errors.SeparateAccessError` otherwise — i.e. the exact data
  race the model forbids becomes an immediate, deterministic error.
* :class:`SeparateRef` is the client-side reference to an object living on a
  handler.  It is what ``separate`` blocks reserve and what call/query
  operations are addressed to; it never exposes the raw object to arbitrary
  threads.

A thread is allowed to access a separate object when either

1. it *is* the object's handler thread (the normal case: the handler applies
   logged calls), or
2. it is the client currently holding synchronous control of the handler —
   i.e. the client has completed a sync round-trip and the handler is parked
   on that client's (empty) private queue.  This is precisely the window in
   which the paper's modified query rule executes the query body on the
   client (Section 3.2).
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.errors import SeparateAccessError

#: attributes of SeparateObject that bypass the ownership check
_INTERNAL_ATTRS = frozenset({"_scoop_handler_ref", "__dict__", "__class__"})


class SeparateObject:
    """Base class for objects whose accesses are ownership-checked.

    Subclasses behave like ordinary Python objects until they are adopted by
    a handler (``handler.adopt(obj)`` or ``handler.create(cls, ...)``); from
    then on every attribute read or write is checked against the rules in
    the module docstring.
    """

    _scoop_handler_ref: Optional["HandlerOwner"] = None

    # -- ownership ---------------------------------------------------------
    def _scoop_bind(self, owner: "HandlerOwner") -> None:
        object.__setattr__(self, "_scoop_handler_ref", owner)

    def _scoop_owner(self) -> Optional["HandlerOwner"]:
        try:
            return object.__getattribute__(self, "_scoop_handler_ref")
        except AttributeError:
            return None

    def _scoop_check_access(self) -> None:
        owner = self._scoop_owner()
        if owner is None:
            return  # not yet adopted: plain object semantics
        if owner.thread_allowed(threading.current_thread()):
            return
        raise SeparateAccessError(
            f"object {type(self).__name__} is handled by {owner.name!r}; "
            f"thread {threading.current_thread().name!r} may not access it directly. "
            "Use a separate block and log a call or query instead."
        )

    def __getstate__(self) -> dict:
        """Pickle the fields, not the ownership (a lock and a thread).

        Ownership is not state: a copy arrives unbound, and whoever hosts it
        binds it again.  This is what lets a handler process snapshot its
        hosted objects and a ``@query`` return ``self`` across the wire.
        (Instances always carry a ``__dict__`` — binding needs one — so that
        is the whole state.)
        """
        fields = dict(object.__getattribute__(self, "__dict__"))
        fields.pop("_scoop_handler_ref", None)
        return fields

    # -- checked access ----------------------------------------------------
    def __getattribute__(self, name: str) -> Any:
        if name.startswith("_scoop_") or name in _INTERNAL_ATTRS or name.startswith("__"):
            return object.__getattribute__(self, name)
        object.__getattribute__(self, "_scoop_check_access")()
        return object.__getattribute__(self, name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name.startswith("_scoop_"):
            object.__setattr__(self, name, value)
            return
        self._scoop_check_access()
        object.__setattr__(self, name, value)


class HandlerOwner:
    """The part of a handler the ownership check needs to know about.

    Kept separate from :class:`repro.core.handler.Handler` to avoid an import
    cycle and to allow lightweight owners in tests.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._thread: Optional[threading.Thread] = None
        #: thread currently granted synchronous control (after a sync)
        self._synced_client: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- wiring -------------------------------------------------------------
    def bind_thread(self, thread: threading.Thread) -> None:
        self._thread = thread

    # -- grants --------------------------------------------------------------
    def grant_sync_access(self, thread: threading.Thread) -> None:
        """Record that ``thread`` holds synchronous control of this handler."""
        with self._lock:
            self._synced_client = thread

    def revoke_sync_access(self, thread: Optional[threading.Thread] = None) -> None:
        """Drop the synchronous-control grant (if held by ``thread`` or anyone)."""
        with self._lock:
            if thread is None or self._synced_client is thread:
                self._synced_client = None

    # -- checks ---------------------------------------------------------------
    def thread_allowed(self, thread: threading.Thread) -> bool:
        if self._thread is thread:
            return True
        with self._lock:
            return self._synced_client is thread

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"HandlerOwner({self.name!r})"


class SeparateRef:
    """Client-side reference to an object residing on a handler.

    A ``SeparateRef`` is deliberately opaque: it exposes the owning handler
    and (to the runtime only) the raw object, but any attempt to call methods
    on it directly tells the user to open a separate block first.
    """

    __slots__ = ("handler", "_obj")

    def __init__(self, handler: Any, obj: Any) -> None:
        self.handler = handler
        self._obj = obj

    # The runtime needs the raw object to apply calls on the handler.
    def _raw(self) -> Any:
        return self._obj

    def __getattr__(self, name: str) -> Any:
        raise SeparateAccessError(
            f"cannot access attribute {name!r} through a SeparateRef; "
            "reserve it with runtime.separate(...) and use the proxy instead"
        )

    def __repr__(self) -> str:
        return f"<SeparateRef {type(self._obj).__name__} @ {getattr(self.handler, 'name', self.handler)}>"
