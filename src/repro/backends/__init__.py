"""Pluggable execution backends for the SCOOP/Qs runtime.

The protocol machinery (queue-of-queues, private queues, sync coalescing)
is backend-agnostic; a backend decides how handlers and clients *execute*:

=========== ==============================================================
``threads``  one OS thread per handler/client; real parallelism and
             wall-clock time (the default)
``sim``      cooperative tasks on the virtual-time
             :class:`~repro.sched.scheduler.CooperativeScheduler`;
             deterministic, reproducible schedules with built-in deadlock
             detection
``process``  each handler in its own OS process behind a socket server;
             clients stay threads of the parent, requests travel as framed
             messages, handlers execute with true multi-core parallelism
``async``    handlers and coroutine clients as asyncio tasks on one or
             more event loops; clients become nearly free, so fan-in
             scales to tens of thousands of concurrent clients (blocking
             thread clients still work alongside)
``process+async``
             the process backend with client event loops
             (``ProcessBackend(loops=n)``): handlers in the process worker
             pool (real cores), clients as coroutine tasks across event
             loops — tens of thousands of concurrent clients driving
             compute-bound handlers in parallel
=========== ==============================================================

A backend is the product of two axes — *where a handler drains* (inline
thread, event loop, worker process) and *what a client is* (thread or
coroutine) — so no backend class inherits from another; see
:mod:`repro.backends.base`.

Select one with ``QsRuntime(backend="sim")``, ``QsConfig(backend="sim")``,
the ``REPRO_BACKEND`` environment variable, or ``repro --backend sim ...``
on the command line.

Backend specs follow one grammar (every parse error quotes it)::

    threads | sim[:policy[:seed]] | process[:nproc][:codec] | async[:nloops]
        | process+async[:nproc[:nloops[:codec]]]

A sim spec carries a scheduling policy and seed — ``"sim:random"``,
``"sim:random:7"``, ``"sim:pct:3"`` — selecting which interleaving the
simulator executes (see :mod:`repro.sched.policy`); so
``REPRO_BACKEND=sim:random:7`` reruns a whole program suite under one
specific adversarial schedule without touching any source.  A process spec
carries a worker-process cap and/or a wire codec — ``"process:4"``,
``"process:json"``, ``"process:2:bin"`` (see :mod:`repro.queues.codec`).
An async spec carries an event-loop count — ``"async:4"`` runs four loops
with shard replicas pinned round-robin across them.  ``process+async``
(alias ``hybrid``) takes a worker cap, a loop count and a codec in that order —
``"process+async:4:2:bin"`` is four worker processes, two client loops,
binary wire frames.  ``threads`` takes no components; trailing components
on it are rejected rather than silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type

from repro.backends.async_ import AsyncBackend, AsyncClientHandle, AsyncEventHandle
from repro.backends.base import ClientHandle, ExecutionBackend
from repro.backends.process import ProcessBackend
from repro.backends.sim import SimBackend, SimClientHandle, SimEventHandle, SimLock
from repro.backends.threaded import ThreadedBackend
from repro.queues.codec import CODEC_NAMES
from repro.sched.policy import POLICY_NAMES, make_policy

#: canonical backend name -> the class implementing it (``process+async``
#: is a configuration of the process backend, not a class of its own)
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    "threads": ThreadedBackend,
    "sim": SimBackend,
    "process": ProcessBackend,
    "async": AsyncBackend,
    "process+async": ProcessBackend,
}

#: canonical names (one per backend), for CLI choices and error messages
BACKEND_NAMES = tuple(BACKENDS)

#: the one spec grammar every parse error points at
SPEC_GRAMMAR = ("threads | sim[:policy[:seed]] | process[:nproc][:codec] | async[:nloops] "
                "| process+async[:nproc[:nloops[:codec]]] "
                f"(policies: {', '.join(POLICY_NAMES)}; codecs: {', '.join(CODEC_NAMES)})")


def _spec_error(spec: str, reason: str) -> ValueError:
    """One consistent, actionable error for every malformed backend spec."""
    return ValueError(f"invalid backend spec {spec!r}: {reason}; expected {SPEC_GRAMMAR}")


#: accepted spelling -> canonical name (the ``BACKEND_NAMES`` entry)
_CANONICAL = {
    "threads": "threads",
    "threaded": "threads",
    "sim": "sim",
    "virtual": "sim",
    "process": "process",
    "processes": "process",
    "async": "async",
    "asyncio": "async",
    "process+async": "process+async",
    "hybrid": "process+async",
}


@dataclass(frozen=True)
class BackendSpec:
    """A backend spec as structured data: the parsed twin of the spec string.

    ``BackendSpec.parse("process:4:pickle")`` and :meth:`to_spec` round-trip
    through the one grammar (:data:`SPEC_GRAMMAR`) that the string form uses,
    with every parse error preserved verbatim; :meth:`create` instantiates
    the backend.  ``QsRuntime(backend=...)`` and ``QsConfig.backend`` accept
    a ``BackendSpec`` anywhere they accept a spec string, so programmatic
    callers can stop assembling ``f"process:{n}:{codec}"`` strings.

    Fields that do not apply to the named backend stay ``None``: ``policy``
    and ``seed`` belong to ``sim``, ``processes`` and ``codec`` to
    ``process``, ``loops`` to ``async`` — and the ``process+async``
    composite uses ``processes``, ``loops`` and ``codec`` together.
    :meth:`parse` is the validating constructor — building an
    instance directly skips grammar checks (``create`` still rejects unknown
    backend names).  ``name`` is always canonical after a parse: aliases
    (``threaded``, ``virtual``, ``processes``, ``asyncio``) collapse to the
    :data:`BACKEND_NAMES` spelling, which is what ``to_spec`` emits.
    """

    name: str
    policy: Optional[str] = None
    seed: Optional[int] = None
    processes: Optional[int] = None
    codec: Optional[str] = None
    loops: Optional[int] = None

    @classmethod
    def parse(cls, spec: "str | BackendSpec") -> "BackendSpec":
        """Parse a spec string (idempotently: a ``BackendSpec`` passes through).

        Raises exactly the ``ValueError`` the string-spec path always raised
        for malformed specs, quoting the original spelling and the grammar.
        """
        if isinstance(spec, BackendSpec):
            return spec
        text = str(spec)
        base, _, rest = text.lower().partition(":")
        canonical = _CANONICAL.get(base)
        if canonical is None:
            valid = ", ".join(BACKEND_NAMES)
            raise _spec_error(text, f"unknown execution backend {base!r} (one of: {valid})")
        if not rest:
            return cls(name=canonical)
        if canonical == "sim":
            policy_name, _, seed_text = rest.partition(":")
            if policy_name not in POLICY_NAMES:
                raise _spec_error(text, f"unknown scheduling policy {policy_name!r}")
            seed: Optional[int] = None
            if seed_text:
                try:
                    seed = int(seed_text)
                except ValueError:
                    raise _spec_error(text, f"invalid scheduling seed {seed_text!r}") from None
            return cls(name=canonical, policy=policy_name, seed=seed)
        if canonical in ("process", "process+async"):
            # one component grammar: counts (nproc, then — composite only —
            # nloops) and a codec, in any order
            max_counts = 2 if canonical == "process+async" else 1
            counts: list = []
            codec = None
            for part in rest.split(":"):
                if not part:
                    raise _spec_error(text, "empty component")
                if part.isdigit():
                    if len(counts) == max_counts:
                        raise _spec_error(text, "two process counts" if max_counts == 1 else
                                          "more than a process count and a loop count")
                    counts.append(int(part))
                elif part in CODEC_NAMES:
                    if codec is not None:
                        raise _spec_error(text, "two codecs")
                    codec = part
                else:
                    raise _spec_error(
                        text, f"invalid component {part!r} (neither a count nor a codec)")
            loops = counts[1] if len(counts) > 1 else None
            if loops is not None and loops < 1:
                raise _spec_error(
                    text, f"invalid event-loop count {loops!r} (a positive integer)")
            return cls(name=canonical, processes=counts[0] if counts else None,
                       codec=codec, loops=loops)
        if canonical == "async":
            if not rest.isdigit() or int(rest) < 1:
                raise _spec_error(
                    text, f"invalid event-loop count {rest!r} (a positive integer)")
            return cls(name=canonical, loops=int(rest))
        raise _spec_error(
            text,
            f"the {base!r} backend takes no spec components "
            "(only sim takes a policy/seed, process a count/codec, "
            "async a loop count, process+async counts and a codec)")

    def to_spec(self) -> str:
        """The canonical spec string (``parse(s.to_spec()) == s`` for parsed specs)."""
        parts = [self.name]
        if self.policy is not None:
            parts.append(self.policy)
            if self.seed is not None:
                parts.append(str(self.seed))
        if self.processes is not None:
            parts.append(str(self.processes))
        if self.loops is not None:
            parts.append(str(self.loops))
        if self.codec is not None:
            parts.append(self.codec)
        return ":".join(parts)

    def __str__(self) -> str:
        return self.to_spec()

    def create(self) -> ExecutionBackend:
        """Instantiate the backend this spec describes."""
        name = _CANONICAL.get(self.name)
        if name is None:
            valid = ", ".join(BACKEND_NAMES)
            raise _spec_error(
                self.to_spec(), f"unknown execution backend {self.name!r} (one of: {valid})")
        if name == "sim":
            if self.policy is None:
                return SimBackend()
            seed = self.seed if self.seed is not None else 0
            return SimBackend(policy=make_policy(self.policy, seed=seed), seed=seed)
        if name == "process":
            return ProcessBackend(processes=self.processes, codec=self.codec or "pickle")
        if name == "process+async":
            return ProcessBackend(processes=self.processes, codec=self.codec or "pickle",
                                  loops=self.loops or 1)
        if name == "async":
            return AsyncBackend(loops=self.loops or 1)
        return ThreadedBackend()


def create_backend(name: "str | BackendSpec | ExecutionBackend | None") -> ExecutionBackend:
    """Resolve a backend spec (or pass an instance through) to a backend.

    A spec is a backend name optionally followed by backend-specific
    components: a sim scheduling policy and seed (``"sim:random"``,
    ``"sim:pct:42"``), a process count and codec (``"process:4:json"``), or
    an async event-loop count (``"async:4"``) — as a string or an
    equivalent :class:`BackendSpec`.  Components on the threaded backend
    are rejected — silently ignoring them would be misleading.  Every
    malformed spec raises a ``ValueError`` naming the valid grammar
    (:data:`SPEC_GRAMMAR`).
    """
    if name is None:
        return ThreadedBackend()
    if isinstance(name, ExecutionBackend):
        return name
    return BackendSpec.parse(name).create()


__all__ = [
    "ExecutionBackend",
    "ClientHandle",
    "ThreadedBackend",
    "SimBackend",
    "SimClientHandle",
    "SimEventHandle",
    "SimLock",
    "ProcessBackend",
    "AsyncBackend",
    "AsyncClientHandle",
    "AsyncEventHandle",
    "BACKENDS",
    "BACKEND_NAMES",
    "BackendSpec",
    "SPEC_GRAMMAR",
    "create_backend",
]
