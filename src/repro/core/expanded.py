"""Expanded objects: value semantics across region boundaries.

SCOOP's *expanded* classes "are more like standard C structures, and are
presently copied when used as arguments to separate calls" (Section 6 of the
paper, discussing Kilim's ownership transfer as a possible future
optimization).  Copying is what keeps the model race free: if the receiver
got a reference to the client's object, both regions could mutate it without
going through a handler.

This module provides that value semantics for the reproduction:

* subclass :class:`Expanded` (or register a type with
  :func:`register_expanded`) to declare that instances are copied whenever
  they cross a region boundary as the argument of an asynchronous call;
* :func:`prepare_arguments` is the hook the client-side request machinery
  calls just before packaging a call — it deep-copies every expanded
  argument and charges the copy to the ``expanded_copies`` / ``bytes_copied``
  counters, so the cost the paper talks about is visible in every experiment.

Mutable built-in containers (``list``, ``dict``, ``set``, ``bytearray``) are
*not* copied implicitly: the paper's model would make them separate objects,
and silently copying them would hide genuine sharing bugs that
:class:`~repro.errors.SeparateAccessError` exists to surface.  Numpy arrays
can be opted in per call via :func:`expanded_view` when a workload really
wants by-value transfer.
"""

from __future__ import annotations

import copy
import sys
from typing import Any, Dict, Optional, Set, Tuple, Type

from repro.util.counters import Counters

#: types registered as expanded without subclassing :class:`Expanded`
_REGISTERED: Set[type] = set()


class Expanded:
    """Base class marking a type as *expanded* (copied across regions)."""

    __scoop_expanded__ = True

    def scoop_copy(self) -> "Expanded":
        """Produce the copy shipped to the other region.

        The default is :func:`copy.deepcopy`; value types with cheaper copy
        strategies (e.g. flat records of scalars) can override this.
        """
        return copy.deepcopy(self)


class ExpandedView:
    """Explicit one-shot wrapper forcing by-value transfer of ``value``."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def scoop_copy(self) -> Any:
        return copy.deepcopy(self.value)


def expanded_view(value: Any) -> ExpandedView:
    """Wrap ``value`` so the next call ships a deep copy of it."""
    return ExpandedView(value)


def register_expanded(cls: Type) -> Type:
    """Register ``cls`` (e.g. a third-party value type) as expanded.

    Usable as a decorator::

        @register_expanded
        class Point:
            ...
    """
    _REGISTERED.add(cls)
    return cls


def unregister_expanded(cls: Type) -> None:
    _REGISTERED.discard(cls)


def is_expanded(value: Any) -> bool:
    """Is ``value`` copied (rather than aliased) when crossing regions?"""
    if isinstance(value, (Expanded, ExpandedView)):
        return True
    return type(value) in _REGISTERED


def _estimate_size(value: Any) -> int:
    """Rough byte estimate of a copied value (for the counters only)."""
    try:
        return int(sys.getsizeof(value))
    except TypeError:  # pragma: no cover - exotic objects
        return 64


def copy_expanded(value: Any, counters: Optional[Counters] = None) -> Any:
    """Copy one expanded value, charging the counters."""
    if isinstance(value, (Expanded, ExpandedView)):
        copied = value.scoop_copy()
    else:
        copied = copy.deepcopy(value)
    if counters is not None:
        counters.bump("expanded_copies")
        counters.add("bytes_copied", _estimate_size(copied))
    return copied


def prepare_arguments(args: Tuple[Any, ...], kwargs: Dict[str, Any],
                      counters: Optional[Counters] = None) -> Tuple[Tuple[Any, ...], Dict[str, Any]]:
    """Copy every expanded argument of a call crossing a region boundary.

    Non-expanded arguments are passed through untouched (reference semantics,
    protected by the ownership checks of :mod:`repro.core.region`).
    """
    if not args and not kwargs:
        return args, kwargs
    if not any(is_expanded(a) for a in args) and not any(is_expanded(v) for v in kwargs.values()):
        return args, kwargs
    new_args = tuple(copy_expanded(a, counters) if is_expanded(a) else a for a in args)
    new_kwargs = {
        key: copy_expanded(value, counters) if is_expanded(value) else value
        for key, value in kwargs.items()
    }
    return new_args, new_kwargs
