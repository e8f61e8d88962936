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

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.api import COMMAND, method_kind
from repro.core.client import Client, Reservation
from repro.core.conditions import WaitOutcome, WaitStrategy, reserve_when
from repro.core.region import SeparateRef
from repro.errors import ReservationError


class ReservedProxy:
    """A separate object reserved by the enclosing separate block.

    A feature is resolved once per proxy: the callable built for ``p.name``
    is kept in the instance ``__dict__``, where the next ``p.name`` finds it
    without reaching :meth:`__getattr__`.  It still goes through the client
    on every call, so it raises ``NotReservedError`` once the block is over.
    """

    __slots__ = ("_ref", "_client", "__dict__")

    def __init__(self, ref: SeparateRef, client: Client) -> None:
        object.__setattr__(self, "_ref", ref)
        object.__setattr__(self, "_client", client)

    # -- explicit API -------------------------------------------------------
    @property
    def ref(self) -> SeparateRef:
        return self._ref

    @property
    def handler(self):
        return self._ref.handler

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

    # -- attribute sugar ------------------------------------------------------
    def __getattr__(self, name: str):
        ref = object.__getattribute__(self, "_ref")
        client = object.__getattribute__(self, "_client")
        # a remote handle (process backend) advertises the hosted object's
        # class so @command/@query markers resolve without the object itself
        raw = ref._raw()
        kind = method_kind(getattr(raw, "_scoop_class", None) or type(raw), name)

        if kind == COMMAND:
            call = client.call  # a command is logged again and again: bind once

            def feature(*args: Any, **kwargs: Any) -> None:
                call(ref, name, *args, **kwargs)
        else:
            def feature(*args: Any, **kwargs: Any) -> Any:
                return client.query(ref, name, *args, **kwargs)
        feature.__name__ = name
        object.__setattr__(self, name, feature)
        return feature

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "attributes of a separate object cannot be assigned directly; "
            "log a command that performs the assignment on the handler"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<ReservedProxy of {self._ref!r}>"


class SeparateBlock:
    """Context manager implementing (multi-)handler reservation.

    With ``wait_until`` the block becomes a SCOOP *wait condition*: the
    reservation is retried (release → back off → reserve again) until the
    predicate, called with the reserved proxies, evaluates to true.  The
    outcome of the wait (number of retries, time spent) is available as
    :attr:`wait_outcome` after the block has been entered.
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
        self._refs = list(refs)
        self._reservations: List[Reservation] = []
        self._wait_until = wait_until
        if wait_strategy is not None:
            self._wait_strategy = wait_strategy
        elif wait_timeout is not None:
            self._wait_strategy = WaitStrategy(timeout=wait_timeout)
        else:
            self._wait_strategy = WaitStrategy()
        #: filled in by ``__enter__`` when a wait condition was supplied
        self.wait_outcome: Optional[WaitOutcome] = None

    def _build_proxies(self, refs: Sequence[SeparateRef]) -> Tuple["ReservedProxy", ...]:
        return tuple(ReservedProxy(ref, self._client) for ref in refs)

    def __enter__(self):
        if self._wait_until is None:
            handlers = []
            for ref in self._refs:
                if ref.handler not in handlers:
                    handlers.append(ref.handler)
            self._reservations = self._client.reserve(handlers)
            proxies = self._build_proxies(self._refs)
        else:
            self._reservations, proxies, self.wait_outcome = reserve_when(
                self._client, self._refs, self._wait_until, self._build_proxies,
                strategy=self._wait_strategy,
            )
        return proxies[0] if len(proxies) == 1 else proxies

    def __exit__(self, exc_type, exc, tb) -> None:
        self._client.release(self._reservations)
        self._reservations = []
