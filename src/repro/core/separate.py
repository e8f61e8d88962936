"""``separate`` blocks and reserved-object proxies.

``runtime.separate(x)`` (or ``separate(x, y)`` for the multi-reservation of
Section 2.4) is a context manager mirroring the paper's

.. code-block:: text

    separate x y do
        x.set(Red)
        y.set(Red)
    end

Inside the block each reserved object is represented by a
:class:`ReservedProxy`.  Calling a method on the proxy logs it on the
handler: methods marked ``@command`` become asynchronous calls, methods
marked ``@query`` (or unmarked methods) become synchronous queries.  The
proxy also exposes explicit ``send``/``ask``/``sync_`` escape hatches for
code that wants to choose per call.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.api import COMMAND, method_kind
from repro.core.client import Client, Reservation
from repro.core.conditions import WaitOutcome, WaitStrategy, reserve_when
from repro.core.region import SeparateRef
from repro.errors import ReservationError
from repro.queues.wire_queue import RemoteHandle


class PerClassProxy:
    """What a reserved proxy and its awaitable twin share: features per class.

    Constructing ``ReservedProxy(ref, client)`` builds an instance of a
    proxy type derived once for the hosted object's class.  A feature is
    resolved once per ``(class, name)``: the first ``p.name`` on any proxy of
    that class asks :func:`~repro.core.api.method_kind` whether it is a
    command or a query and stores the generated feature on the derived type,
    where every later proxy finds it as a plain method.  A feature still goes
    through the client on every call, so it raises ``NotReservedError`` once
    the block is over.  A generated feature takes ``self`` positional-only,
    so the hosted feature's keywords may have any name.
    """

    __slots__ = ("_ref", "_client")

    #: hosted class -> derived proxy type (each subclass below has its own)
    _types: Dict[type, type]
    #: the hosted class a derived proxy type resolves features against
    _hosted: Optional[type] = None

    def __new__(cls, ref: SeparateRef, client: Any) -> "PerClassProxy":
        raw = ref._raw()
        hosted = type(raw)
        if hosted is RemoteHandle:
            # a remote handle (process backend) advertises the hosted
            # object's class so @command/@query markers resolve without it
            hosted = raw._scoop_class
        try:
            proxy_type = cls._types[hosted]
        except KeyError:
            proxy_type = cls._derive(hosted)
        proxy = object.__new__(proxy_type)
        _set_ref(proxy, ref)
        _set_client(proxy, client)
        return proxy

    @classmethod
    def _derive(cls, hosted: type) -> type:
        base = cls if cls._hosted is None else cls.__mro__[1]
        proxy_type = type(f"{base.__name__}[{hosted.__qualname__}]", (base,),
                          {"__slots__": (), "_hosted": hosted})
        base._types[hosted] = proxy_type
        return proxy_type

    @staticmethod
    def _feature(name: str, kind: str) -> Callable[..., Any]:
        """The generated feature for ``name`` (each proxy kind builds its own)."""
        raise NotImplementedError

    @property
    def ref(self) -> SeparateRef:
        return self._ref

    @property
    def handler(self):
        return self._ref.handler

    def __getattr__(self, name: str):
        # reached once per (class, name): afterwards the derived type has it
        proxy_type = type(self)
        feature = proxy_type._feature(name, method_kind(proxy_type._hosted, name))
        feature.__name__ = feature.__qualname__ = name
        if not name.startswith("__"):  # special methods stay off the type
            setattr(proxy_type, name, feature)
        return feature.__get__(self, proxy_type)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "attributes of a separate object cannot be assigned directly; "
            "log a command that performs the assignment on the handler"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} of {self._ref!r}>"


_set_ref = PerClassProxy._ref.__set__
_set_client = PerClassProxy._client.__set__


class ReservedProxy(PerClassProxy):
    """A separate object reserved by the enclosing separate block.

    ``p.name(...)`` logs a ``@command`` asynchronously and runs a ``@query``
    (or an unmarked feature) synchronously; see :class:`PerClassProxy` for
    where features are resolved.  ``send``/``ask``/``apply``/``compute``/
    ``sync_`` choose per call, and shadow features of the same name.
    """

    __slots__ = ()
    _types: Dict[type, type] = {}

    @staticmethod
    def _feature(name: str, kind: str) -> Callable[..., Any]:
        if kind == COMMAND:
            def feature(self, /, *args: Any, **kwargs: Any) -> None:
                self._client.call(self._ref, name, *args, **kwargs)
        else:
            def feature(self, /, *args: Any, **kwargs: Any) -> Any:
                return self._client.query(self._ref, name, *args, **kwargs)
        return feature

    # -- explicit API -------------------------------------------------------
    def send(self, method: str, /, *args: Any, **kwargs: Any) -> None:
        """Log ``method`` asynchronously regardless of its declared kind."""
        self._client.call(self._ref, method, *args, **kwargs)

    def ask(self, method: str, /, *args: Any, **kwargs: Any) -> Any:
        """Issue ``method`` as a synchronous query regardless of its kind."""
        return self._client.query(self._ref, method, *args, **kwargs)

    def apply(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> None:
        """Asynchronously apply ``fn(obj, *args, **kwargs)`` on the handler."""
        self._client.call(self._ref, fn, *args, **kwargs)

    def compute(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """Synchronously apply ``fn(obj, *args, **kwargs)`` and return the result."""
        return self._client.query(self._ref, fn, *args, **kwargs)

    def sync_(self) -> bool:
        """Force a sync with the handler (used by generated/transfer code)."""
        return self._client.sync(self._ref)


class SeparateBlock:
    """Context manager implementing (multi-)handler reservation.

    With ``wait_until`` the block becomes a SCOOP *wait condition*: the
    reservation is retried (release → back off → reserve again) until the
    predicate, called with the reserved proxies, evaluates to true.  The
    outcome of the wait (number of retries, time spent) is available as
    :attr:`wait_outcome` after the block has been entered.

    A block of one separate object and no wait condition, the common case,
    takes the lean path: ``Client.reserve_one`` and ``Client.release_one``.
    """

    def __init__(self, client: Client, refs: Sequence[SeparateRef],
                 wait_until: Optional[Callable[..., bool]] = None,
                 wait_timeout: Optional[float] = None,
                 wait_strategy: Optional[WaitStrategy] = None) -> None:
        if not refs:
            raise ReservationError("separate() needs at least one separate object")
        for ref in refs:
            if not isinstance(ref, SeparateRef):
                raise ReservationError(
                    f"separate() expects SeparateRef arguments, got {type(ref).__name__}; "
                    "create objects with handler.create(...) or handler.adopt(...)"
                )
        self._client = client
        self._refs = refs
        #: the lean path's one reservation, else the general path's list
        self._reservation: Optional[Reservation] = None
        self._reservations: List[Reservation] = []
        self._wait_until = wait_until
        # only a block that waits reads a strategy, so it is built in __enter__
        self._wait_timeout = wait_timeout
        self._wait_strategy = wait_strategy
        #: filled in by ``__enter__`` when a wait condition was supplied
        self.wait_outcome: Optional[WaitOutcome] = None

    def _build_proxies(self, refs: Sequence[SeparateRef]) -> Tuple["ReservedProxy", ...]:
        return tuple(ReservedProxy(ref, self._client) for ref in refs)

    def __enter__(self):
        client, refs = self._client, self._refs
        if self._wait_until is None:
            if len(refs) == 1:
                ref = refs[0]
                self._reservation = client.reserve_one(ref.handler)
                return ReservedProxy(ref, client)
            handlers = []
            for ref in refs:
                if ref.handler not in handlers:
                    handlers.append(ref.handler)
            self._reservations = client.reserve(handlers)
            proxies = self._build_proxies(refs)
        else:
            strategy = self._wait_strategy
            if strategy is None:
                strategy = WaitStrategy(timeout=self._wait_timeout)
            self._reservations, proxies, self.wait_outcome = reserve_when(
                client, refs, self._wait_until, self._build_proxies, strategy=strategy,
            )
        return proxies[0] if len(proxies) == 1 else proxies

    def __exit__(self, exc_type, exc, tb) -> None:
        reservation = self._reservation
        if reservation is not None:
            self._client.release_one(reservation)
            self._reservation = None
        else:
            self._client.release(self._reservations)
            self._reservations = []
