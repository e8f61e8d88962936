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
to ``ledger/compare.py``, and the pairs the change won are counted per metric:
a gain is claimed on nine of ten, not on a median alone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20150207


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


def one_pass(root: str, workload: str, seed: int, seconds: float, out: str) -> dict:
    """One untraced pass in the driver's form; the ``--out`` file it wrote."""
    done = subprocess.run(
        [sys.executable, os.path.join(root, "ledger", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out", out],
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
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    sides = {"A": {"runs": []}, "B": {"runs": []}}
    wins = dict.fromkeys(better, 0)
    with tempfile.TemporaryDirectory(prefix="ledger-pairs-work-") as work:
        roots = {"A": export(args.parent, os.path.join(work, "parent")),
                 "B": export("", os.path.join(work, "change"))}
        for i in range(args.pairs):
            values = {}
            for side in ("AB" if i % 2 == 0 else "BA"):
                result = one_pass(roots[side], args.workload, args.seed + i, args.seconds,
                                  os.path.join(work, "pass.json"))
                sides[side].setdefault("meta", result["meta"])
                sides[side]["runs"] += result["runs"]
                values[side] = result["runs"][0]["metrics"]
            for name, direction in better.items():
                a, b = values["A"][name]["value"], values["B"][name]["value"]
                wins[name] += (b > a) if direction == "higher" else (b < a)
            print(f"pair {i}: " + "  ".join(
                f"{name} {values['A'][name]['value']:.5g} -> {values['B'][name]['value']:.5g}"
                for name in better), flush=True)
    paths = []
    for side, content in sides.items():
        paths.append(os.path.join(out_dir, f"{side}.json"))
        with open(paths[-1], "w") as handle:
            json.dump(content, handle, indent=1)
    print(f"\nA = {args.parent}, B = working tree; results in {out_dir}")
    print("pairs won by B: " + "  ".join(f"{name} {won}/{args.pairs}"
                                         for name, won in wins.items()))
    return subprocess.run([sys.executable, os.path.join(ROOT, "ledger", "compare.py"),
                           *paths]).returncode


if __name__ == "__main__":
    sys.exit(main())
