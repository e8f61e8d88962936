#!/usr/bin/env python3
"""Compare two ledger results: ``python3 ledger/compare.py A.json B.json``.

Per workload and end-to-end metric it prints both medians and quartiles and
one verdict for B against A, using the bound the benchmark fixed:

* ``unresolved`` - either side's run-to-run spread (interquartile distance
  over the median) is wider than the bound, so the bound cannot be read;
* ``worse`` / ``better`` - B's median differs from A's by more than the bound;
* ``same`` - otherwise.

Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence

if __name__ == "__main__":   # as a script, sys.path[0] is ledger/: make it the checkout root
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from ledger import spec, stats  # noqa: E402 - the checkout root must be importable first


def untraced_values(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per untraced pass]}}`` of one result file."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, cell in run["metrics"].items():
            out.setdefault(run["workload"], {}).setdefault(name, []).append(cell["value"])
    return out


def verdict(metric: spec.EndToEnd, a: Sequence[float], b: Sequence[float]) -> str:
    if max(stats.spread(a), stats.spread(b)) > metric.bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    gain = (new - base) / base if metric.better == "higher" else (base - new) / base
    if gain < -metric.bound:
        return "worse"
    if gain > metric.bound:
        return "better"
    return "same"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_all, b_all = untraced_values(argv[0]), untraced_values(argv[1])
    worse = 0
    for workload in (w.name for w in spec.WORKLOADS):
        if workload not in a_all or workload not in b_all:
            continue
        print(f"\n{workload}  (A: {len(a_all[workload]['setup_s'])} runs, "
              f"B: {len(b_all[workload]['setup_s'])} runs)")
        print(f"  {'metric':<16}{'unit':<7}{'A q1 / median / q3':<34}"
              f"{'B q1 / median / q3':<34}{'bound':<7}verdict")
        for metric in spec.END_TO_END:
            a, b = a_all[workload][metric.name], b_all[workload][metric.name]
            result = verdict(metric, a, b)
            worse += result == "worse"
            print(f"  {metric.name:<16}{metric.unit:<7}"
                  f"{' / '.join(f'{q:.5g}' for q in stats.quartiles(a)):<34}"
                  f"{' / '.join(f'{q:.5g}' for q in stats.quartiles(b)):<34}"
                  f"{metric.bound:<7g}{result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
