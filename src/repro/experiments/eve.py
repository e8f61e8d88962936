"""Section 4.5: EVE/Qs — the QoQ + Dynamic techniques inside an existing runtime.

The paper ports the queue-of-queues and the dynamic sync-coalescing
optimization (but *not* the static pass, which needs compiler support) into
EiffelStudio's research branch and reports geometric-mean speedups over the
production SCOOP runtime of 11.7x (concurrent), 7.7x (parallel) and 9.7x
overall.

Here the same configuration is expressed as a :class:`~repro.config.QsConfig`
with ``use_qoq`` and ``dynamic_sync_coalescing`` enabled and the static pass
disabled, and compared against the lock-based baseline on the same
benchmarks, reporting the analogous geometric-mean improvement in
communication work and wall-clock time.
"""

from __future__ import annotations

import argparse
from typing import Dict, List

from repro.config import QsConfig
from repro.experiments.report import format_table
from repro.util.timing import geometric_mean
from repro.workloads.concurrent.runner import CONCURRENT_TASKS, run_concurrent
from repro.workloads.cowichan.scoop import COWICHAN_TASKS, run_cowichan
from repro.workloads.params import concurrent_preset, parallel_preset


def eve_config() -> QsConfig:
    """QoQ + Dynamic, no static pass — what EVE/Qs implements."""
    return QsConfig(
        use_qoq=True,
        dynamic_sync_coalescing=True,
        static_sync_coalescing=False,
        client_executed_queries=True,
        private_queue_cache=True,
        name="eve-qs",
    )


def collect(preset: str = "small") -> Dict[str, object]:
    baseline = QsConfig.none()
    eve = eve_config()
    psizes = parallel_preset(preset)
    csizes = concurrent_preset(preset)

    rows: List[Dict[str, object]] = []
    parallel_speedups: List[float] = []
    concurrent_speedups: List[float] = []
    for task in sorted(COWICHAN_TASKS):
        base = run_cowichan(task, baseline, psizes)
        port = run_cowichan(task, eve, psizes)
        speedup = max(1.0, base.communication_ops) / max(1.0, port.communication_ops)
        parallel_speedups.append(speedup)
        rows.append({"task": task, "kind": "parallel",
                     "baseline_ops": base.communication_ops, "eve_ops": port.communication_ops,
                     "speedup_ops": round(speedup, 2)})
    for task in sorted(CONCURRENT_TASKS):
        base = run_concurrent(task, baseline, csizes)
        port = run_concurrent(task, eve, csizes)
        speedup = max(1e-9, base.total_seconds) / max(1e-9, port.total_seconds)
        concurrent_speedups.append(speedup)
        rows.append({"task": task, "kind": "concurrent",
                     "baseline_ops": base.communication_ops, "eve_ops": port.communication_ops,
                     "baseline_s": round(base.total_seconds, 4), "eve_s": round(port.total_seconds, 4),
                     "speedup_time": round(speedup, 2)})
    return {
        "rows": rows,
        "parallel_geomean": geometric_mean(parallel_speedups),
        "concurrent_geomean": geometric_mean(concurrent_speedups),
        "overall_geomean": geometric_mean(parallel_speedups + concurrent_speedups),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="small", choices=["tiny", "small"])
    args = parser.parse_args()
    data = collect(args.preset)
    print(format_table(data["rows"], title="EVE/Qs (QoQ + Dynamic) vs. production-SCOOP baseline"))
    print()
    print(f"Geometric-mean improvement, parallel  : {data['parallel_geomean']:.1f}x (paper: 7.7x)")
    print(f"Geometric-mean improvement, concurrent: {data['concurrent_geomean']:.1f}x (paper: 11.7x)")
    print(f"Geometric-mean improvement, overall   : {data['overall_geomean']:.1f}x (paper: 9.7x)")


if __name__ == "__main__":
    main()
