#!/usr/bin/env python3
"""The performance ledger: one command that measures ``repro`` end to end and
layer by layer, checks its own outputs and writes one JSON result.

    python3 ledger/run.py                      all four workloads, untraced then traced
    python3 ledger/run.py --repeat 3 --out A.json
    python3 ledger/run.py --workload serve_hot_read --seed 7 --seconds 26 --trace 0

With ``--workload`` and ``--trace 0|1`` it is the driver's form: one pass of
one workload, and the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys
from typing import Any, Dict, List, Optional

if __name__ == "__main__":   # as a script, sys.path[0] is ledger/: make it the checkout root
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from ledger import OUT, SRC, spec  # noqa: E402 - the checkout root must be importable first

DEFAULT_SEED = 20150207
#: a pass that has not ended by then is killed with everything it started;
#: the driver allows 180 s
HARD_TIMEOUT_S = 170


def _record(workload: str, seed: int, seconds: float, trace: int, measured: Dict[str, Any],
            metrics: Dict[str, float]) -> Dict[str, Any]:
    table = spec.PER_LAYER if trace else spec.END_TO_END
    units = {m.name: m.unit for m in table}
    missing = [name for name in units if name not in metrics]
    if missing:
        raise RuntimeError(f"{workload}: no value for {', '.join(missing)}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": measured["correct"], "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "notes": measured["notes"], "detail": measured["detail"],
    }


def untraced_pass(workload: str, seed: int, seconds: float, setups: int) -> Dict[str, Any]:
    """The pass every end-to-end metric comes from."""
    from ledger import qs_bench, serve_bench, traffic

    if workload in traffic.SERVE:
        measured = serve_bench.measure(workload, seed, seconds, setups)
    else:
        measured = qs_bench.measure(workload, seed, seconds, 0.0, setups)
    return _record(workload, seed, seconds, 0, measured, measured["end_to_end"])


def traced_pass(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The pass the per-layer metrics and the span file come from.

    Half the time goes to the system under load (counts), the rest to the
    traced calls (spans) and the timing probes.
    """
    from ledger import layers, qs_bench, serve_bench, traffic

    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, f"trace-{workload}.json")
    if workload in traffic.SERVE:
        serve = traffic.SERVE[workload]
        measured = serve_bench.measure(workload, seed, seconds / 2, setups=1)
        values = measured["counted"]
        requests = list(itertools.islice(traffic.serve_requests(workload, seed), 4096))
        replay = layers.run_replay(serve.backend, traffic.preload_requests(workload),
                                   requests, seconds / 4, trace_file, workload)
        spans = replay["span_us_median"]
        values.update(replay["probes"])
        values.update(layers.http_router_cache_probes(
            requests, replay["payloads"], int(values["serve.cache.entries"])))
        plain_rate, traced_rate = replay["plain"][1], replay["traced"][1]
        values.update({
            "serve.gateway.dispatch_us": spans["serve.gateway.ask"],
            "serve.gateway.residual_us":
                values["loadgen.service_p50_ms"] * 1e3 - spans["request"],
            "core.block_enter_us": spans["core.block_enter"],
            "core.command_us": 0.0,
            "core.query_us": spans["core.query"],
            "core.block_exit_us": spans["core.block_exit"],
            "trace.overhead_share": 1.0 - traced_rate / plain_rate,
            "trace.spans_per_op": replay["spans"] / replay["traced"][0],
        })
        measured["detail"]["replay_stack_us_median"] = spans
        measured["detail"]["replay_self_us_median"] = replay["self_us_median"]
        writes = [(("add_allegation", [f"case-{r.case}", {"token": r.token, "text": "x"}]),)
                  for r in requests[:64] if r.method == "POST"]
        reads = [(("list_allegations", [f"case-{r.case}"]),)
                 for r in requests[:64] if r.method == "GET"]
        frames = [f for calls in writes + reads for f in layers.block_frames(calls)]
    else:
        qs = traffic.QS[workload]
        window = max(1.0, float(int(seconds / 4)))
        measured = qs_bench.measure(workload, seed, window, window, 1, trace_file)
        values = measured["counted"]
        frames = layers.block_frames(
            [("log", [item]) for item in range(qs.commands_per_block)] + [("progress", [])])
    values.update(layers.queue_probes())
    values.update(layers.counter_probe())
    values.update(layers.codec_probes(frames))
    values.update(layers.framing_probes(frames, "pickle"))
    metrics = {m.name: float(values[m.name]) if spec.on_path(workload, m.name) else 0.0
               for m in spec.PER_LAYER}
    measured["detail"]["trace_file"] = os.path.relpath(trace_file)
    return _record(workload, seed, seconds, 1, measured, metrics)


def _print_record(record: Dict[str, Any]) -> None:
    kind = "per-layer (traced pass)" if record["trace"] else "end-to-end (untraced pass)"
    print(f"\n== {record['workload']}  seed {record['seed']}  {record['seconds']:g} s  {kind}")
    for name, cell in record["metrics"].items():
        off = record["trace"] and not spec.on_path(record["workload"], name)
        shown = "-  (layer not on this workload's path)" if off else f"{cell['value']:.6g}"
        print(f"  {name:<46} {shown:>14} {cell['unit'] if not off else ''}")
    verdict = "ok" if record["correct"] else "FAILED"
    print(f"  checks: {verdict}  attempted {record['attempted']}  failed {record['failed']}  "
          + "  ".join(f"{key} {value}" for key, value in record["detail"].items()
                      if isinstance(value, (int, float))))
    for note in record["notes"]:
        print(f"  NOTE: {note}")


def _list() -> None:
    for workload in spec.WORKLOADS:
        print(f"workload {workload.name}")
    for metric in spec.END_TO_END:
        print(f"end_to_end {metric.name} {metric.unit} {metric.better} {metric.bound}")
    for metric in spec.PER_LAYER:
        print(f"per_layer {metric.name} {metric.unit} {metric.better} | moves: {metric.moves}")


def _on_alarm(_signum: int, _frame: Any) -> None:
    raise TimeoutError(f"pass exceeded the hard timeout of {HARD_TIMEOUT_S} s")


def _on_term(_signum: int, _frame: Any) -> None:
    raise SystemExit(143)


def _guarded(make_pass: Any, *args: Any) -> Dict[str, Any]:
    signal.alarm(HARD_TIMEOUT_S)
    try:
        return make_pass(*args)
    finally:
        signal.alarm(0)


def main(argv: Optional[List[str]] = None) -> int:
    names = [w.name for w in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time of a pass (default {spec.RUN_SECONDS}; "
                             "10 for the traced pass of a full run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: only the untraced pass; 1: only the traced pass; "
                             "absent: both")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced passes per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--smoke", action="store_true",
                        help="2 s windows, one set-up: exercises every path quickly")
    parser.add_argument("--out", default=os.path.join(OUT, "ledger.json"))
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric name and exit")
    args = parser.parse_args(argv)
    if args.list:
        _list()
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, SRC)
    from ledger import harness

    # children must get the default SIGINT action (the clean-stop signal) even
    # when this process was started with it ignored, e.g. from `cmd &`
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGALRM, _on_alarm)

    workloads = args.workload or names
    untraced_s = args.seconds or (2.0 if args.smoke else float(spec.RUN_SECONDS))
    traced_s = args.seconds or (4.0 if args.smoke else 10.0)
    setups = 1 if args.smoke else spec.SETUPS
    meta = harness.meta(args.seed)
    print(f"ledger: {meta['nproc']} cpus, load average {meta['loadavg_at_start']:.2f}, "
          f"python {meta['python']}, {meta['network']}; load from one asyncio process, "
          "2 callers, never scaled with nproc")
    records: List[Dict[str, Any]] = []
    for workload in workloads:
        if args.trace != 1:
            for turn in range(args.repeat):
                records.append(_guarded(untraced_pass, workload, args.seed + turn,
                                        untraced_s, setups))
                _print_record(records[-1])
        if args.trace != 0:
            records.append(_guarded(traced_pass, workload, args.seed, traced_s))
            _print_record(records[-1])

    left = harness.child_pids(os.getpid())
    if left:
        print(f"ledger: {len(left)} child process(es) left behind: {left}", file=sys.stderr)
    good = not left and all(r["correct"] for r in records)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump({"meta": meta, "runs": records}, handle, indent=1)
    print(f"\nledger: {len(records)} pass(es) written to {os.path.relpath(args.out)}; "
          f"output checks {'passed' if good else 'FAILED'}")
    if len(records) == 1 and args.trace is not None:
        record = records[0]
        print(json.dumps({"correct": bool(record["correct"] and not left),
                          "attempted": record["attempted"], "failed": record["failed"],
                          "metrics": record["metrics"]}))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
