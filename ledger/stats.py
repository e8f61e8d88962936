"""Order statistics, per-second slices and the in-memory span log."""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: spans written to a trace file; a 10 s ping-pong pass records more than
#: anyone reads, and the medians are taken over all of them before the cut
MAX_SPANS_WRITTEN = 200_000


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


def slice_rate_median(stamps: Iterable[float], start: float, end: float,
                      width: float = 1.0) -> float:
    """Median completions per second over the whole ``width``-second slices
    of ``[start, end)``; a trailing partial slice is dropped.  A window
    shorter than ``width`` (smoke runs) is one slice."""
    width = min(width, end - start)
    slices = int((end - start) / width + 1e-9)
    counts = [0] * slices
    for stamp in stamps:
        index = int((stamp - start) / width)
        if 0 <= index < slices:
            counts[index] += 1
    return statistics.median(counts) / width


def runtime_counts(counters: Mapping[str, int], blocks: int) -> Dict[str, float]:
    """The per-layer metrics that are ratios of runtime counters, per separate
    block (``blocks``: separate blocks run, or sharded asks dispatched)."""
    syncs = counters.get("sync_roundtrips", 0)
    elided = counters.get("syncs_elided", 0)
    return {
        "core.reservations_per_block": counters.get("reservations", 0) / blocks,
        "core.sync_roundtrips_per_block": syncs / blocks,
        "core.syncs_elided_share": elided / max(1, elided + syncs),
        "queues.qoq.mean_batch": counters.get("qoq_batch_size_sum", 0) / max(
            1, counters.get("qoq_batch_drains", 0)),
        "queues.socket_queue.coalesced_per_block":
            counters.get("wire_frames_coalesced", 0) / blocks,
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


class SpanLog:
    """Spans kept in memory: (name, start, end, parent index, operation id).

    ``begin`` returns the span's index, which is the ``parent`` of the spans
    it causes; ``end`` closes it.  A disabled log records nothing, so the
    same code runs traced and untraced and the difference between the two
    is the tracing overhead.
    """

    __slots__ = ("enabled", "spans")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[list] = []

    def begin(self, name: str, op: int, parent: int = -1) -> int:
        if not self.enabled:
            return -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, op])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        if index >= 0:
            self.spans[index][2] = time.perf_counter()

    def durations_us(self) -> Dict[str, List[float]]:
        """Span durations in µs, grouped by span name."""
        out: Dict[str, List[float]] = {}
        for name, start, end, _parent, _op in self.spans:
            out.setdefault(name, []).append((end - start) * 1e6)
        return out

    def write(self, path: str, workload: str) -> None:
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        kept = self.spans[:MAX_SPANS_WRITTEN]
        doc = {
            "workload": workload,
            "columns": ["name", "start_us", "end_us", "parent", "op"],
            "names": names,
            "spans_recorded": len(self.spans),
            "spans_written": len(kept),
            "self_us_median": {name: round(statistics.median(times), 3)
                               for name, times in self_times_us(self.spans).items()},
            "spans": [[code[name], round((start - origin) * 1e6, 2),
                       round((end - origin) * 1e6, 2), parent, op]
                      for name, start, end, parent, op in kept],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def self_times_us(spans: Sequence[Sequence]) -> Dict[str, List[float]]:
    """Self time per span name: duration minus the time its children cover.

    Children of one span never overlap here (one request is one task), so
    the covered part is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, List[float]] = {}
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        out.setdefault(name, []).append((end - start - covered[index]) * 1e6)
    return out
