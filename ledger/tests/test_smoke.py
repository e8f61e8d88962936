"""A ``--smoke`` pass of all four workloads, untraced and traced, exits 0."""

import json
import os
import subprocess
import sys

from ledger import ROOT, spec


def test_smoke_pass_of_every_workload(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run([sys.executable, os.path.join(ROOT, "ledger", "run.py"), "--smoke",
                           "--out", str(out)], capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    runs = json.loads(out.read_text())["runs"]
    assert [(r["workload"], r["trace"]) for r in runs] == [
        (w.name, trace) for w in spec.WORKLOADS for trace in (0, 1)]
    for run in runs:
        table = spec.PER_LAYER if run["trace"] else spec.END_TO_END
        assert list(run["metrics"]) == [m.name for m in table]
        assert run["correct"] and run["attempted"] >= 1
        if not run["trace"]:
            assert all(cell["value"] > 0 for cell in run["metrics"].values())
    for name in ("git_sha", "seed", "nproc", "python", "platform", "loadavg_at_start",
                 "network"):
        assert name in json.loads(out.read_text())["meta"]
