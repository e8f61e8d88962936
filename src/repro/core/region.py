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

Cost on the owner path (handler thread or synced client): one owner lookup,
one thread-local read and two identity tests, no lock and no bound method —
a call making three checked accesses takes ~1.3 µs, not the ~3.6 µs of a
lock and a bound method per access (CPython 3.11, 2-CPU host).  Identity, not
``ident``: a later thread may reuse a finished one's ident.  The thread-local
read (:func:`calling_thread`) is ``threading.current_thread()`` cached per
thread, at about a third of its cost; a later thread gets a fresh local, so
it never sees a finished thread's object.
"""

from __future__ import annotations

import threading
from threading import current_thread
from typing import Any, Optional

from repro.errors import SeparateAccessError

#: attributes of SeparateObject that bypass the ownership check
_INTERNAL_ATTRS = frozenset({"_scoop_handler_ref", "__dict__", "__class__"})

_get = object.__getattribute__

#: per thread: its ``threading.Thread``, once :func:`calling_thread` has run there
_here = threading.local()


def calling_thread() -> threading.Thread:
    """``threading.current_thread()``, cached in a thread-local."""
    try:
        return _here.thread
    except AttributeError:
        _here.thread = thread = current_thread()
        return thread


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
        return _get(self, "_scoop_handler_ref")  # the class default: None

    def _scoop_refuse(self, owner: "HandlerOwner", thread: threading.Thread) -> None:
        raise SeparateAccessError(
            f"object {type(self).__name__} is handled by {owner.name!r}; "
            f"thread {thread.name!r} may not access it directly. "
            "Use a separate block and log a call or query instead."
        )

    def __getstate__(self) -> dict:
        """Pickle the fields, not the ownership (its threads).

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
        owner = _get(self, "_scoop_handler_ref")  # None: not yet adopted
        if owner is not None:
            try:
                thread = _here.thread  # calling_thread(), inlined
            except AttributeError:
                thread = calling_thread()
            if (thread is not owner._thread and thread is not owner._synced_client
                    and not (name.startswith("_scoop_") or name in _INTERNAL_ATTRS
                             or name.startswith("__"))):
                self._scoop_refuse(owner, thread)
        return _get(self, name)

    def __setattr__(self, name: str, value: Any) -> None:
        owner = _get(self, "_scoop_handler_ref")
        if owner is not None:
            try:
                thread = _here.thread
            except AttributeError:
                thread = calling_thread()
            if (thread is not owner._thread and thread is not owner._synced_client
                    and not name.startswith("_scoop_")):
                self._scoop_refuse(owner, thread)
        object.__setattr__(self, name, value)


class HandlerOwner:
    """The part of a handler the ownership check needs to know about.

    Kept separate from :class:`repro.core.handler.Handler` to avoid an import
    cycle and to allow lightweight owners in tests.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._thread: Optional[threading.Thread] = None
        #: thread granted synchronous control (after a sync)
        self._synced_client: Optional[threading.Thread] = None

    # -- wiring -------------------------------------------------------------
    def bind_thread(self, thread: threading.Thread) -> None:
        self._thread = thread

    # -- grants --------------------------------------------------------------
    # No lock: a grant is one store, and only the client whose block the
    # handler is parked on holds or drops it.  That client drops its grant
    # before it ends the block (``Client._end``), so no other client can be
    # granted between the test and the store of a revoke.
    def grant_sync_access(self, thread: threading.Thread) -> None:
        """Record that ``thread`` holds synchronous control of this handler."""
        self._synced_client = thread

    def revoke_sync_access(self, thread: Optional[threading.Thread] = None) -> None:
        """Drop the synchronous-control grant (if held by ``thread`` or anyone)."""
        if thread is None or self._synced_client is thread:
            self._synced_client = None

    # -- checks ---------------------------------------------------------------
    def thread_allowed(self, thread: threading.Thread) -> bool:
        return thread is self._thread or thread is self._synced_client

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
