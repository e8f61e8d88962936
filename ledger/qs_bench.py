"""The ``qs_*`` workloads, parent side: launch ``ledger.qs_child`` in its own
session, time its set-up, collect what it measured and checked."""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

from ledger import harness, stats
from ledger.traffic import QS


def _child(workload: str, seed: int, plain_s: float, traced_s: float,
           trace_file: str) -> Tuple[float, Dict[str, Any], Dict[str, Any], int]:
    """One child from launch to exit: (set-up s, READY doc, RESULT doc, left behind)."""
    sut = harness.Sut([sys.executable, "-m", "ledger.qs_child", "--workload", workload,
                       "--seed", str(seed), "--seconds", repr(plain_s),
                       "--traced-seconds", repr(traced_s), "--trace-file", trace_file])
    try:
        ready = _tagged(sut.read_line(60.0), "READY")
        setup_s = time.monotonic() - sut.launched
        result = _tagged(sut.read_line(plain_s + traced_s + 60.0), "RESULT")
        _took, left = sut.stop(interrupt=False)     # it exits by itself
    finally:
        sut.kill()
    return setup_s, ready, result, left + result["children_left"]


def _tagged(line: str, tag: str) -> Dict[str, Any]:
    if not line.startswith(tag + " "):
        raise RuntimeError(f"expected a {tag} line from the Qs child, got {line[:200]!r}")
    return json.loads(line[len(tag) + 1:])


def measure(workload: str, seed: int, plain_s: float, traced_s: float, setups: int,
            trace_file: str = "") -> Dict[str, Any]:
    spec = QS[workload]
    setup_times: List[float] = []
    left_behind = 0
    for _ in range(setups - 1):
        setup_s, _ready, _result, left = _child(workload, seed, 0.0, 0.0, "")
        setup_times.append(setup_s)
        left_behind += left
    setup_s, ready, result, left = _child(workload, seed, plain_s, traced_s, trace_file)
    setup_times.append(setup_s)
    left_behind += left

    failed = result["failed"] + left_behind
    end_to_end = {name: result[name] for name in (
        "latency_p50_ms", "slo_met_share", "saturation_rps", "ops_per_s", "rss_mb")}
    end_to_end["setup_s"] = statistics.median(setup_times)
    end_to_end["ok_share"] = 1.0 - failed / result["attempted"]

    blocks = result["blocks"]
    counted = {name: value for name, value in result.items() if name.startswith("backends.")}
    counted["backends.spawn_s"] = ready["backends.spawn_s"]
    counted["loadgen.latency_p99_ms"] = result["latency_p99_ms"]
    counted.update(stats.runtime_counts(result["counters"], blocks))
    if traced_s > 0:
        spans = result["span_us_median"]
        per_block = spec.commands_per_block + 1
        counted.update({
            "core.block_enter_us": spans["core.block_enter"],
            "core.command_us": spans.get("core.command", 0.0),
            "core.query_us": spans["core.query"],
            "core.block_exit_us": spans["core.block_exit"],
            "trace.overhead_share":
                1.0 - result["traced_blocks_per_s"] / result["saturation_rps"],
            "trace.spans_per_op": result["spans"] / (result["traced_blocks"] * per_block),
        })
    return {
        "attempted": result["attempted"], "failed": failed,
        "correct": result["check_violations"] == 0 and left_behind == 0,
        "end_to_end": end_to_end, "counted": counted, "notes": [],
        "detail": {
            "latency_samples": result["latency_samples"], "blocks": blocks,
            "check_violations": result["check_violations"],
            "processes_left_behind": left_behind, "setup_times_s": setup_times,
        },
    }
