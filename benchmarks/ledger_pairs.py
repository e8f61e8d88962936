#!/usr/bin/env python3
"""Alternating parent/change passes of one ledger workload, judged by the ledger.

    python3 benchmarks/ledger_pairs.py --workload qs_command_stream --pairs 10

The change is this working tree; the parent is ``--parent`` (default ``HEAD``,
i.e. "my uncommitted work against the last commit"; after committing pass
``HEAD~1``).  Both are exported into a temporary directory first (``git
archive``; for the working tree its tracked and unignored files), because that
is how the driver runs them and because a checkout that has been worked in
holds bytecode caches a fresh one lacks: ``setup_s`` read 0.05-0.2 s lower for
the working tree when only the parent was exported.  Pair
``i`` uses seed ``--seed + i`` (default 20150207) on both sides in the driver's form
(``ledger/run.py --workload W --seed S --seconds T --trace 0``) and even pairs
run the parent first, odd pairs the change.  The passes are collected into
``A.json`` (parent) and ``B.json`` (change) in ``run.py --out``'s shape, handed
to ``ledger/compare.py``.  First, per end-to-end metric, the paired numbers:
both sides' medians and interquartile ranges, the pairs the change won, lost
and tied, and a two-sided exact sign-test p over the pairs that were not
ties; the summary line names the seed range.  Then one paired verdict per
metric, by one rule: ``better`` (or ``worse``) when the change won (lost) at
least nine pairs in ten *and* its median differs from the parent's by more
than the parent's interquartile distance; ``same`` otherwise.  Fewer than ten
pairs give no verdict.  ``ledger/compare.py``'s own verdict (its fixed bound)
still prints last.

Host speed moves a rate more than most changes do, so before and after every
pass a fixed pure-Python loop is timed (~0.2 s, on the CPU the ledger gives
its clients) and the one-minute load average read; both are printed per pass.  A pass's probe is the mean of its
two timings.  A pair whose two sides' probes differ by more than the
workload's spread (the parent's ``saturation_rps`` interquartile distance
over its median: on ``serve_*`` ``ops_per_s`` is the offered open-loop rate,
which barely spreads) is flagged.  Next to each side's raw median, rates and times
are also given normalised by the pass's probe: a rate times the probe over
the median probe of all passes, a time divided by it.

After the pairs, one traced pass per side (``--seconds 10 --trace 1``, seed
``--seed``) prints the CPU share of the parent process and of the workers
and the per-layer spans of a separate block, as parent -> change.  Every claim
must name the saturated process and the layer that moved: a gain the spans do
not place, or one on a process that was not saturated, is not explained yet.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20150207
#: the paired verdict's rule: the share of pairs won, over at least this many
MIN_PAIRS, WIN_SHARE = 10, 0.9
#: iterations of the host-speed probe's loop (~0.2 s on the 2-CPU ledger host)
PROBE_LOOPS = 3_000_000
#: units whose values scale with host speed: rates (times the probe) and
#: times (divided by it); shares and sizes are not normalised
RATE_UNITS, TIME_UNITS = ("op/s", "req/s"), ("s", "ms")
#: what the traced pass prints: who is saturated, where a block's time goes,
#: how many sync round trips a block makes and how many it elides, what a
#: reservation's ticket costs in memory, how many requests a handler drains
#: per batch, and how many requests per block share a write with another
ATTRIBUTION = ("backends.parent_cpu_share", "backends.worker_cpu_share",
               "core.block_enter_us", "core.command_us", "core.query_us",
               "core.block_exit_us", "core.sync_roundtrips_per_block",
               "core.syncs_elided_share", "queues.qoq.enqueue_dequeue_us",
               "queues.qoq.mean_batch", "queues.socket_queue.coalesced_per_block")


def export(rev: str, dest: str) -> str:
    """A clean checkout in ``dest``: ``rev``'s files, or ("") the working tree's."""
    os.mkdir(dest)
    if rev:
        packed = subprocess.run(["git", "-C", ROOT, "archive", rev],
                                check=True, stdout=subprocess.PIPE).stdout
    else:
        names = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "-c", "-o",
                                "--exclude-standard"], check=True, stdout=subprocess.PIPE).stdout
        packed = subprocess.run(["tar", "-C", ROOT, "--null", "-T", "-", "-c",
                                 "--ignore-failed-read"],  # tracked but deleted here
                                input=names, check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=packed, check=True)
    return dest


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``ledger/compare.py`` reads them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def probe() -> Tuple[float, float]:
    """Host speed now: seconds a fixed pure-Python loop takes, and the 1-min load.

    The loop runs on the CPU the ledger gives its load generators and
    clients (``ledger/harness.py::split_cpus``: the last one allowed), which
    is where a ``qs_*`` client spends its pass.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        began = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        took = time.perf_counter() - began
    finally:
        os.sched_setaffinity(0, allowed)
    return took, os.getloadavg()[0]


def won_lost(direction: str, a: Sequence[float], b: Sequence[float]) -> Tuple[int, int]:
    """Pairs in which B beat A, and pairs in which A beat B."""
    sign = 1 if direction == "higher" else -1
    return (sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            sum(sign * (y - x) < 0 for x, y in zip(a, b)))


def paired_verdict(direction: str, a: Sequence[float], b: Sequence[float]) -> str:
    """``better``/``worse``/``same`` by the rule in the module docstring."""
    if len(a) < MIN_PAIRS:
        return f"none (<{MIN_PAIRS} pairs)"
    won, lost = won_lost(direction, a, b)
    q1, median_a, q3 = quartiles(a)
    gap = (statistics.median(b) - median_a) * (1 if direction == "higher" else -1)
    needed = math.ceil(WIN_SHARE * len(a))
    if won >= needed and gap > q3 - q1:
        return "better"
    if lost >= needed and -gap > q3 - q1:
        return "worse"
    return "same"


def normalised(unit: str, values: Sequence[float],
               probes: Sequence[float]) -> Optional[List[float]]:
    """``values`` at the median probe's host speed (None: not a rate or a time)."""
    reference = statistics.median(probes)
    if unit in RATE_UNITS:
        return [v * p / reference for v, p in zip(values, probes)]
    if unit in TIME_UNITS:
        return [v * reference / p for v, p in zip(values, probes)]
    return None


def paired_rows(metrics: Dict[str, Tuple[str, str]], pairs: List[dict],
                probes: List[dict]) -> List[str]:
    """One line per end-to-end metric: medians and IQRs (raw, then at the
    median probe), wins/losses/ties, the sign-test p and the paired verdict."""
    rows = [f"  {'metric':<16}{'A median (IQR)':<22}{'B median (IQR)':<22}"
            f"{'A / B at median probe':<24}{'won/lost/tied':<15}{'sign p':<9}verdict"]
    for name, (direction, unit) in metrics.items():
        a = [pair["A"][name]["value"] for pair in pairs]
        b = [pair["B"][name]["value"] for pair in pairs]
        won, lost = won_lost(direction, a, b)
        cells = []
        for values in (a, b):
            q1, q2, q3 = quartiles(values)
            cells.append(f"{q2:.5g} ({q3 - q1:.3g})")
        scaled = [normalised(unit, values, [p[side] for p in probes])
                  for side, values in (("A", a), ("B", b))]
        at_probe = ("-" if scaled[0] is None else
                    " / ".join(f"{statistics.median(v):.5g}" for v in scaled))
        rows.append(f"  {name:<16}{cells[0]:<22}{cells[1]:<22}{at_probe:<24}"
                    f"{f'{won}/{lost}/{len(a) - won - lost}':<15}"
                    f"{sign_test_p(won, lost):<9.3g}{paired_verdict(direction, a, b)}")
    return rows


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median, as ``ledger/stats.py`` reads it."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def flagged_pairs(pairs: List[dict], probes: List[dict]) -> Tuple[float, List[int]]:
    """The workload's spread, and the pairs whose sides' probes differ by more."""
    limit = spread([pair["A"]["saturation_rps"]["value"] for pair in pairs])
    flagged = [i for i, p in enumerate(probes)
               if abs(p["A"] - p["B"]) / statistics.mean((p["A"], p["B"])) > limit]
    return limit, flagged


def one_pass(root: str, workload: str, seed: int, seconds: float, out: str,
             trace: int = 0) -> dict:
    """One single-workload pass of ``run.py`` (untraced by default); the ``--out`` file it wrote."""
    done = subprocess.run(
        [sys.executable, os.path.join(root, "ledger", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", out],
        cwd=root, stdout=subprocess.DEVNULL)
    if done.returncode:
        sys.exit(f"ledger_pairs: {workload} seed {seed} failed in {root} (exit {done.returncode})")
    with open(out) as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--seed", type=int, default=SEED, help="seed of pair 0")
    args = parser.parse_args()
    out_dir = tempfile.mkdtemp(prefix="ledger-pairs-")  # A.json and B.json stay behind
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = {m["name"]: (m["better"], m["unit"])
                   for m in json.load(handle)["end_to_end"]}
    sides = {"A": {"runs": []}, "B": {"runs": []}}
    pairs: List[dict] = []
    probes: List[dict] = []
    with tempfile.TemporaryDirectory(prefix="ledger-pairs-work-") as work:
        roots = {"A": export(args.parent, os.path.join(work, "parent")),
                 "B": export("", os.path.join(work, "change"))}
        for i in range(args.pairs):
            values, speed = {}, {}
            for side in ("AB" if i % 2 == 0 else "BA"):
                before = probe()
                result = one_pass(roots[side], args.workload, args.seed + i, args.seconds,
                                  os.path.join(work, "pass.json"))
                after = probe()
                speed[side] = (before[0] + after[0]) / 2
                print(f"pair {i} {side}: probe {before[0]:.3f} s / {after[0]:.3f} s, "
                      f"load {before[1]:.2f} / {after[1]:.2f}", flush=True)
                sides[side].setdefault("meta", result["meta"])
                sides[side]["runs"] += result["runs"]
                values[side] = result["runs"][0]["metrics"]
            pairs.append(values)
            probes.append(speed)
            print(f"pair {i}: " + "  ".join(
                f"{name} {values['A'][name]['value']:.5g} -> {values['B'][name]['value']:.5g}"
                for name in metrics), flush=True)
        traced = {side: one_pass(roots[side], args.workload, args.seed, 10.0,
                                 os.path.join(work, "pass.json"), trace=1)["runs"][0]["metrics"]
                  for side in "AB"}
    print(f"\ntraced pass, 10 s, seed {args.seed}: the saturated process and the layer that moved")
    for name in ATTRIBUTION:
        print(f"  {name:<32} {traced['A'][name]['value']:.4g} -> {traced['B'][name]['value']:.4g}")
    paths = []
    for side, content in sides.items():
        paths.append(os.path.join(out_dir, f"{side}.json"))
        with open(paths[-1], "w") as handle:
            json.dump(content, handle, indent=1)
    print(f"\nA = {args.parent}, B = working tree; results in {out_dir}")
    print(f"{args.workload}: B against A over {args.pairs} pairs")
    print("\n".join(paired_rows(metrics, pairs, probes)))
    limit, flagged = flagged_pairs(pairs, probes)
    print(f"pairs {args.pairs}, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"even pairs parent first; verdict: >= {WIN_SHARE:.0%} of >= {MIN_PAIRS} pairs "
          f"won and a median gap over the parent's IQR")
    print(f"probes of the two sides apart by over {limit:.3f} (the parent's saturation_rps spread) "
          f"in pairs: {', '.join(map(str, flagged)) or 'none'}")
    return subprocess.run([sys.executable, os.path.join(ROOT, "ledger", "compare.py"),
                           *paths]).returncode


if __name__ == "__main__":
    sys.exit(main())
