"""Bulk data movement between regions: the query-heavy loops of Section 3.4.

The idiomatic way to move data in SCOOP is for the client to *pull* it from
the handler with queries (Section 3.4): reading a remote array element by
element issues one query per element, which is why the sync-coalescing
optimizations matter so much for the Cowichan workloads (Fig. 16).

This module implements those pull/push loops *through the compiler
substrate*: the loop is expressed as IR (the exact Fig. 14 shape), the
configured lowering and static sync-coalescing passes are applied, and the
optimized IR is executed against the live runtime.  As a result the number
of sync round-trips actually performed depends on the optimization level in
the same way the paper describes:

==================  =============================================
configuration       sync round-trips for an ``n``-element pull
==================  =============================================
``none`` / ``qoq``  ``n`` (every query is shipped to the handler)
``dynamic``         1 performed, ``n-1`` elided at runtime
``static`` / "all"  1 (the pass removed the syncs in the loop body)
==================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Union

from repro.compiler.builder import FunctionBuilder
from repro.compiler.interp import IRInterpreter
from repro.core.region import SeparateRef
from repro.core.runtime import QsRuntime
from repro.core.separate import ReservedProxy

if TYPE_CHECKING:  # numpy is imported where it is used (see repro.util.rng)
    import numpy as np

Getter = Callable[[Any, int], Any]
Setter = Callable[[Any, int, Any], None]


def _as_ref(target: Union[ReservedProxy, SeparateRef]) -> SeparateRef:
    if isinstance(target, ReservedProxy):
        return target.ref
    return target


@dataclass
class TransferReport:
    """What one transfer did (used by the optimization benchmarks)."""

    elements: int
    sync_roundtrips: int
    syncs_elided: int
    async_calls: int

    @property
    def roundtrips_per_element(self) -> float:
        return self.sync_roundtrips / self.elements if self.elements else 0.0


def pull_elements(
    runtime: QsRuntime,
    source: Union[ReservedProxy, SeparateRef],
    getter: Getter,
    count: int,
    out: Optional[Union[np.ndarray, list]] = None,
) -> tuple[Any, TransferReport]:
    """Pull ``count`` elements from a separate object into ``out``.

    ``getter(obj, i)`` reads element ``i`` from the handler-owned object; it
    is executed under query semantics, so the call is legal regardless of
    the optimization level.  Returns ``(out, report)``.
    """
    ref = _as_ref(source)
    if count < 0:
        raise ValueError("count must be non-negative")
    if out is None:
        out = [None] * count

    before = runtime.counters.snapshot()

    def body(obj: Any, env: dict) -> None:
        i = env["i"]
        env["out"][i] = getter(obj, i)
        env["i"] = i + 1

    # The naive code generator of Fig. 14a emits a sync before every remote
    # read, including one ahead of the loop; that pre-loop sync is what lets
    # the static pass prove the per-element syncs in the body redundant.
    builder = FunctionBuilder("pull_elements", entry="head")
    builder.block("head").sync("src").jump("body")
    builder.block("body").query("src", note="out[i] := src[i]", action=body).branch("body", "exit")
    builder.block("exit").ret()
    function = builder.build()

    interp = IRInterpreter(runtime, {"src": ref})
    trace = ["head"] + ["body"] * count + ["exit"]
    env = {"i": 0, "out": out}
    interp.execute(function, trace=trace, env=env)

    delta = runtime.counters.snapshot().diff(before)
    report = TransferReport(
        elements=count,
        sync_roundtrips=delta["sync_roundtrips"],
        syncs_elided=delta["syncs_elided"],
        async_calls=delta["async_calls"],
    )
    return out, report


def pull_array(
    runtime: QsRuntime,
    source: Union[ReservedProxy, SeparateRef],
    getter: Getter,
    count: int,
    dtype: Any = None,
) -> tuple[np.ndarray, TransferReport]:
    """Pull ``count`` numeric elements into a fresh numpy array (``float64``
    unless ``dtype`` says otherwise)."""
    import numpy as np

    out = np.zeros(count, dtype=np.float64 if dtype is None else dtype)
    _, report = pull_elements(runtime, source, getter, count, out=out)
    return out, report


def push_elements(
    runtime: QsRuntime,
    target: Union[ReservedProxy, SeparateRef],
    setter: Setter,
    values: Sequence[Any],
) -> TransferReport:
    """Push ``values`` one element at a time with asynchronous calls.

    This is the "push" option of Section 3.4: every element requires
    packaging and enqueuing a call, which is why the paper recommends the
    pull style; the ablation benchmark compares the two.
    """
    ref = _as_ref(target)
    before = runtime.counters.snapshot()

    def body(obj: Any, env: dict) -> None:
        i = env["i"]
        setter(obj, i, env["values"][i])
        env["i"] = i + 1

    builder = FunctionBuilder("push_elements", entry="head")
    builder.block("head").jump("body")
    builder.block("body").async_call("dst", note="dst[i] := values[i]", action=body).branch("body", "exit")
    builder.block("exit").ret()
    function = builder.build()

    interp = IRInterpreter(runtime, {"dst": ref})
    trace = ["head"] + ["body"] * len(values) + ["exit"]
    env = {"i": 0, "values": list(values)}
    interp.execute(function, trace=trace, env=env)

    delta = runtime.counters.snapshot().diff(before)
    return TransferReport(
        elements=len(values),
        sync_roundtrips=delta["sync_roundtrips"],
        syncs_elided=delta["syncs_elided"],
        async_calls=delta["async_calls"],
    )


def pull_rows(
    runtime: QsRuntime,
    source: Union[ReservedProxy, SeparateRef],
    row_getter: Callable[[Any, int], np.ndarray],
    nrows: int,
) -> tuple[List[np.ndarray], TransferReport]:
    """Pull a matrix row by row (each row is one query)."""
    rows, report = pull_elements(runtime, source, row_getter, nrows)
    return list(rows), report
