"""BENCHMARK.json and ``run.py --list`` name exactly the same things."""

import json
import os
import re
import subprocess
import sys

from ledger import ROOT, spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _listed():
    out = subprocess.run([sys.executable, os.path.join(ROOT, "ledger", "run.py"), "--list"],
                         capture_output=True, text=True, check=True, cwd=ROOT).stdout
    listed = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in out.splitlines():
        kind, rest = line.split(" ", 1)
        listed[kind].append(rest.split(" | ")[0].split(" "))
    return listed


def test_manifest_has_exactly_the_contract_keys_and_limits():
    manifest = _manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert manifest["paths"] == ["ledger"]
    assert manifest["command"] == ["python3", "ledger/run.py"]
    assert manifest["run_seconds"] == spec.RUN_SECONDS and 1 <= spec.RUN_SECONDS <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    # the driver makes 4 + 22 x workloads runs inside 3420 s
    assert (4 + 22 * len(manifest["workloads"])) * (spec.RUN_SECONDS + 9) < 3420


def test_every_name_is_listed_and_the_reverse():
    manifest, listed = _manifest(), _listed()
    assert [[w["name"]] for w in manifest["workloads"]] == listed["workload"]
    assert [[m["name"], m["unit"], m["better"], str(m["bound"])]
            for m in manifest["end_to_end"]] == listed["end_to_end"]
    assert [[m["name"], m["unit"], m["better"]]
            for m in manifest["per_layer"]] == listed["per_layer"]


def test_names_units_and_bounds_are_well_formed():
    manifest = _manifest()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_every_workload_has_a_path_table_and_every_layer_a_reason():
    assert set(spec.ON_PATH) == {w.name for w in spec.WORKLOADS}
    assert all(metric.moves for metric in spec.PER_LAYER)
    assert len(spec.PER_LAYER) == 58 and len(spec.END_TO_END) == 7
