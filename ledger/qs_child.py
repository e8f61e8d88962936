"""The ``qs_*`` system under test: a ``QsRuntime``, its handlers and its
closed-loop client threads in one process, launched by ``ledger/run.py``.

Protocol on stdout: one ``READY {json}`` line once the first separate block
has completed (set-up ends there), then one ``RESULT {json}`` line.  The seed
picks the items the commands log; the runtime never sees it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from array import array
from typing import Any, Dict, List

from ledger import harness, stats
from ledger.hosted import Log
from ledger.traffic import QS, SLO_S

now = time.perf_counter


class ClientTally:
    """What one client thread measured and checked."""

    def __init__(self, slices: int, durations: array, lane: int = 0, lanes: int = 1) -> None:
        self.lane, self.lanes = lane, lanes    # span operation ids stay unique
        #: seconds per separate block, shared by the clients (an append is
        #: atomic under the interpreter lock)
        self.durations = durations
        self.per_slice = [0] * slices          # blocks completed in each second
        self.blocks = 0
        self.wrong = 0                         # blocks whose query result was off
        self.raised = 0
        self.spans = stats.SpanLog()


def _plain_block(rt: Any, ref: Any, items: List[int]) -> int:
    with rt.separate(ref) as handler:
        for item in items:
            handler.log(item)
        return handler.progress()


def _traced_block(rt: Any, ref: Any, items: List[int], spans: stats.SpanLog, op: int) -> int:
    root = spans.begin("block", op)
    span = spans.begin("core.block_enter", op, root)
    block = rt.separate(ref)
    handler = block.__enter__()
    spans.end(span)
    try:
        for item in items:
            span = spans.begin("core.command", op, root)
            handler.log(item)
            spans.end(span)
        span = spans.begin("core.query", op, root)
        value = handler.progress()
        spans.end(span)
    finally:
        span = spans.begin("core.block_exit", op, root)
        block.__exit__(None, None, None)
        spans.end(span)
        spans.end(root)
    return value


def _client(rt: Any, ref: Any, items: List[int], start: float, plain_until: float,
            deadline: float, done_before: int, tally: ClientTally, cpus: Any) -> None:
    """Back-to-back separate blocks until ``deadline``; traced after ``plain_until``.

    With one client per handler, block ``k``'s query must answer exactly
    ``k * (commands + 1)``: every command logged so far, in order, once.
    """
    harness.pin_self(cpus)
    per_block = len(items) + 1
    slices = len(tally.per_slice)
    while True:
        began = now()
        if began >= deadline:
            return
        try:
            if began < plain_until:
                value = _plain_block(rt, ref, items)
            else:
                value = _traced_block(rt, ref, items, tally.spans,
                                      tally.blocks * tally.lanes + tally.lane)
        except Exception:
            tally.raised += 1
            continue
        ended = now()
        tally.blocks += 1
        if value != (done_before + tally.blocks) * per_block:
            tally.wrong += 1
        tally.durations.append(ended - began)
        index = int(ended - start)
        if index < slices:
            tally.per_slice[index] += 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(QS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced-seconds", type=float, default=0.0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-file", default="")
    args = parser.parse_args(argv)
    spec = QS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}:items")
    items = [rng.randrange(1 << 30) for _ in range(spec.commands_per_block)]

    from repro import QsRuntime

    # worker processes inherit this thread's CPUs, and each client thread then
    # moves itself to the one CPU kept apart for clients.  Threads of one
    # process are kept on one CPU instead: handing the interpreter lock across
    # CPUs runs qs_query_pingpong at 6.2k blocks/s, on one CPU at 16.5k, and
    # left to the scheduler four runs in ten got the slow placement
    allowed = sorted(os.sched_getaffinity(0))
    client_cpus, handler_cpus = harness.split_cpus()
    harness.pin_self(client_cpus if spec.backend == "threads" else handler_cpus)
    spawn_began = time.monotonic()
    rt = QsRuntime(backend=spec.backend)
    try:
        refs = [rt.new_handler(f"log-{i}").create(Log) for i in range(spec.handlers)]
        spawn_s = time.monotonic() - spawn_began
        # the first block of each client path: connections made, workers warm
        warm = [ClientTally(1, array("f")) for _ in refs]
        for ref, tally in zip(refs, warm):
            rt.client(_client_once, rt, ref, items, tally, client_cpus)
        rt.join_clients()
        if any(tally.wrong for tally in warm):
            raise RuntimeError("the first separate block answered wrongly")
        print("READY " + json.dumps({"backends.spawn_s": spawn_s}), flush=True)

        result: Dict[str, Any] = {}
        if args.seconds > 0:
            workers = harness.child_pids(os.getpid())
            with harness.KeepAwake(allowed, args.seconds + args.traced_seconds + 30.0):
                result = _measure(rt, refs, items, args, client_cpus, workers)
        shutdown_began = time.monotonic()
    finally:
        rt.shutdown()
    result["backends.shutdown_s"] = time.monotonic() - shutdown_began
    result["children_left"] = len(harness.child_pids(os.getpid()))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _client_once(rt: Any, ref: Any, items: List[int], tally: ClientTally,
                 cpus: Any) -> None:
    harness.pin_self(cpus)
    if _plain_block(rt, ref, items) != len(items) + 1:
        tally.wrong += 1


def _measure(rt: Any, refs: List[Any], items: List[int], args: argparse.Namespace,
             client_cpus: Any, workers: List[int]) -> Dict[str, Any]:
    me = os.getpid()
    window = args.seconds + args.traced_seconds
    durations = array("f")
    tallies = [ClientTally(int(window), durations, lane, len(refs))
               for lane in range(len(refs))]
    counters0 = rt.counters.snapshot()
    cpu0 = harness.cpu_seconds(me)
    worker_cpu0 = sum(harness.cpu_seconds(pid) for pid in workers)
    start = now()
    for ref, tally in zip(refs, tallies):
        rt.client(_client, rt, ref, items, start,
                  start + args.seconds, start + window, 1, tally, client_cpus)
    rt.join_clients()
    wall = now() - start
    counters = rt.counters.snapshot().diff(counters0)
    rss_workers = sum(harness.rss_mib(pid) for pid in workers)
    usage = {
        "backends.parent_cpu_share": (harness.cpu_seconds(me) - cpu0) / wall,
        "backends.worker_cpu_share":
            (sum(harness.cpu_seconds(pid) for pid in workers) - worker_cpu0) / wall,
        "backends.rss_parent_mb": harness.rss_mib(me),
        "backends.rss_workers_mb": rss_workers,
        "backends.fds_open": harness.fds_open(me),
    }

    per_block = len(items) + 1
    # final check, outside the window: the handler saw every command once
    wrong_final = 0
    for ref, tally in zip(refs, tallies):
        expected = (1 + tally.blocks) * per_block + 1
        with rt.separate(ref) as handler:
            if handler.progress() != expected:
                wrong_final += 1

    plain_slices = int(args.seconds)
    blocks_per_s = [sum(t.per_slice[i] for t in tallies) for i in range(int(window))]
    ordered = sorted(durations)
    blocks = sum(t.blocks for t in tallies)
    wrong = sum(t.wrong for t in tallies) + wrong_final
    raised = sum(t.raised for t in tallies)
    result: Dict[str, Any] = {
        "blocks": blocks,
        "attempted": (blocks + raised) * per_block + len(refs),
        "failed": raised * per_block + wrong,
        "check_violations": wrong,
        "latency_p50_ms": stats.percentile(ordered, 0.50) * 1e3,
        "latency_p99_ms": stats.percentile(ordered, 0.99) * 1e3,
        "latency_samples": len(durations),
        "slo_met_share": sum(1 for d in durations if d <= SLO_S) / (blocks + raised),
        "saturation_rps": statistics.median(blocks_per_s[:plain_slices]),
        "ops_per_s": statistics.median(blocks_per_s[:plain_slices]) * per_block,
        "rss_mb": usage["backends.rss_parent_mb"] + rss_workers,
        "counters": {name: count for name, count in counters.as_dict().items() if count},
    }
    result.update(usage)
    if args.traced_seconds > 0:
        traced_slices = blocks_per_s[plain_slices:]
        result["traced_blocks_per_s"] = statistics.median(traced_slices) if traced_slices else 0.0
        merged = stats.SpanLog()
        for tally in tallies:
            offset = len(merged.spans)
            merged.spans.extend([name, begin, end, parent + offset if parent >= 0 else -1, op]
                                for name, begin, end, parent, op in tally.spans.spans)
        result["traced_blocks"] = sum(1 for span in merged.spans if span[0] == "block")
        result["spans"] = len(merged.spans)
        result["span_us_median"] = {name: statistics.median(times)
                                    for name, times in merged.durations_us().items()}
        if args.trace_file:
            merged.write(args.trace_file, args.workload)
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
