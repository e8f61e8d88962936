"""The fixed names: workloads, end-to-end metrics, per-layer metrics.

Every later performance claim names one metric and one workload from here.
``BENCHMARK.json`` repeats these tables in the driver's format and
``ledger/tests/test_names.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: what one measuring run lasts (``run_seconds`` in BENCHMARK.json); the
#: issue's 30 s + 10 s windows shortened in proportion to fit the driver's cap
RUN_SECONDS = 26
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str          # the end-to-end metric and workload it should move


WORKLOADS: List[Workload] = [
    Workload("serve_hot_read",
             "process backend, 64 cases, 95% GET, fresh connection per request: cache hits "
             "never leave the gateway, so http, router, cache and accept do the work"),
    Workload("serve_write_mix",
             "process+async backend, 4096 cases (twice the cache), 50% POST, 2 keep-alive "
             "connections: admission, shard, codec, wire and workers; no connection set-up"),
    Workload("qs_command_stream",
             "QsRuntime on process, 2 handlers, 2 clients, 32 commands then 1 query per block: "
             "the asynchronous-call path over the wire, no HTTP"),
    Workload("qs_query_pingpong",
             "QsRuntime on threads, 1 handler, 1 client, 1 query per block: reservation, QoQ "
             "and sync in memory; a batching gain that costs query latency shows here"),
]

END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "launch to first timed operation: interpreter and runtime start, worker spawn, "
             "case preload; median of the run's set-ups"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "serve_*: open-loop phase, median over 2xx responses, timed from the instant the "
             "request was due; qs_*: median duration of one separate block"),
    EndToEnd("slo_met_share", "ratio", "higher", 0.005,
             "serve_*: open-loop requests answered 2xx within 50 ms of due, over requests "
             "offered; qs_*: blocks done within 50 ms, over blocks attempted"),
    EndToEnd("saturation_rps", "req/s", "higher", 0.25,
             "closed loop, 2 callers: requests (serve_*: 2xx; qs_*: separate blocks) "
             "completed per second, median of the 1 s slices"),
    EndToEnd("ops_per_s", "op/s", "higher", 0.25,
             "qs_*: commands plus queries completed per second, median of the 1 s slices; "
             "serve_*: 2xx per second over the open-loop phase (goodput at the offered rate)"),
    EndToEnd("rss_mb", "MiB", "lower", 0.20,
             "resident memory of the system under test and its workers at the end of the "
             "timed window, from /proc"),
    EndToEnd("ok_share", "ratio", "higher", 0.001,
             "1 - (operations that raised, returned 4xx/5xx or broke an output check, over "
             "operations attempted in all phases)"),
]

_HOT, _MIX, _CMD, _PING = (w.name for w in WORKLOADS)
_LAYERS = [
    # the benchmark's own instrument: validity checks, nothing should move them
    ("loadgen.send_lag_p50_ms", "ms", "lower", "nothing: how late the generator sent"),
    ("loadgen.send_lag_p99_ms", "ms", "lower", "nothing: how late the generator sent"),
    ("loadgen.service_p50_ms", "ms", "lower", "nothing: latency from the actual send"),
    ("loadgen.connect_p50_ms", "ms", "lower", "nothing: TCP connect as the client saw it"),
    ("loadgen.cpu_share", "ratio", "lower",
     "nothing: above 0.85 in the closed loop the number is the generator's"),
    # the issue's eighth end-to-end metric: it moved 30-80% run to run on the
    # shared host, far past the widest bound the driver accepts, so it is
    # reported here, where metrics carry no bound
    ("loadgen.latency_p99_ms", "ms", "lower",
     "nothing gated: 99th percentile of the latency_p50_ms samples; rises before "
     "saturation_rps falls"),
    ("serve.http.parse_us", "us", "lower", f"saturation_rps, latency_p50_ms on {_HOT}"),
    ("serve.http.format_us", "us", "lower", f"saturation_rps, latency_p50_ms on {_HOT}"),
    ("serve.http.bytes_out_per_req", "B", "lower", f"saturation_rps on {_HOT}"),
    ("serve.router.resolve_us", "us", "lower", f"saturation_rps on {_HOT}"),
    ("serve.router.patterns_tried_per_req", "count", "lower", f"saturation_rps on {_HOT}"),
    ("serve.cache.lookup_us", "us", "lower", f"saturation_rps on {_HOT}"),
    ("serve.cache.store_us", "us", "lower", f"saturation_rps, latency_p50_ms on {_MIX}"),
    ("serve.cache.invalidate_us", "us", "lower", f"saturation_rps, latency_p50_ms on {_MIX}"),
    ("serve.cache.hit_ratio", "ratio", "higher", f"saturation_rps, latency_p50_ms on {_MIX}"),
    ("serve.cache.entries", "count", "lower", f"rss_mb on {_MIX}"),
    ("serve.admission.admit_release_us", "us", "lower",
     f"saturation_rps on {_MIX}; not {_HOT} (hits bypass it)"),
    ("serve.admission.shed_share", "ratio", "lower", f"slo_met_share on {_MIX}"),
    ("serve.gateway.dispatch_us", "us", "lower", f"latency_p50_ms, saturation_rps on {_MIX}"),
    ("serve.gateway.connections_per_req", "count", "lower", f"saturation_rps on {_HOT}"),
    ("serve.gateway.residual_us", "us", "lower", f"latency_p50_ms, saturation_rps on {_HOT}"),
    ("shard.ref_for_us", "us", "lower", f"saturation_rps on {_MIX}"),
    ("shard.depth_us", "us", "lower", f"saturation_rps on {_MIX}"),
    ("shard.skew", "ratio", "lower", f"loadgen.latency_p99_ms on {_MIX}"),
    ("core.block_enter_us", "us", "lower", f"ops_per_s on {_PING}"),
    ("core.command_us", "us", "lower", f"ops_per_s on {_CMD}"),
    ("core.query_us", "us", "lower", f"ops_per_s on {_PING}"),
    ("core.block_exit_us", "us", "lower", f"ops_per_s on {_PING}"),
    ("core.reservations_per_block", "count", "lower", f"ops_per_s on {_PING}"),
    ("core.sync_roundtrips_per_block", "count", "lower", f"ops_per_s on {_PING}"),
    ("core.syncs_elided_share", "ratio", "higher", f"ops_per_s on {_PING}"),
    ("queues.pq.enqueue_us", "us", "lower", f"ops_per_s on {_PING}"),
    ("queues.pq.dequeue_batch_us_per_item", "us", "lower", f"ops_per_s on {_PING}"),
    ("queues.qoq.enqueue_dequeue_us", "us", "lower", f"ops_per_s on {_PING}"),
    ("queues.qoq.mean_batch", "count", "higher", f"ops_per_s on {_CMD}"),
]
for _codec in ("json", "pickle", "bin"):
    _moves = f"the default codec (pickle): ops_per_s on {_CMD}, saturation_rps on {_MIX}"
    _LAYERS += [(f"queues.codec.encode_us.{_codec}", "us", "lower", _moves),
                (f"queues.codec.decode_us.{_codec}", "us", "lower", _moves),
                (f"queues.codec.frame_bytes.{_codec}", "B", "lower", _moves)]
_LAYERS += [
    ("queues.socket_queue.add_take_us_per_frame", "us", "lower", f"ops_per_s on {_CMD}"),
    ("queues.socket_queue.extend_pop_us_per_frame", "us", "lower", f"ops_per_s on {_CMD}"),
    ("queues.socket_queue.roundtrip_us", "us", "lower", f"latency_p50_ms on {_MIX}"),
    ("queues.socket_queue.coalesced_per_block", "count", "higher", f"ops_per_s on {_CMD}"),
    ("backends.spawn_s", "s", "lower", "setup_s on every workload"),
    ("backends.shutdown_s", "s", "lower", "nothing end to end: teardown is untimed"),
    ("backends.parent_cpu_share", "ratio", "lower",
     "names the saturated process for saturation_rps"),
    ("backends.worker_cpu_share", "ratio", "lower", f"saturation_rps on {_MIX}"),
    ("backends.rss_parent_mb", "MiB", "lower", f"rss_mb on {_MIX} and {_CMD} (the journal)"),
    ("backends.rss_workers_mb", "MiB", "lower", f"rss_mb on {_MIX} and {_CMD}"),
    ("backends.fds_open", "count", "lower", f"slo_met_share on {_HOT} (EMFILE)"),
    ("util.counters.bump_us", "us", "lower", f"ops_per_s on {_PING}"),
    ("trace.overhead_share", "ratio", "lower", "nothing: the cost of the traced pass"),
    ("trace.spans_per_op", "count", "lower", "nothing: the cost of the traced pass"),
]
PER_LAYER: List[Layer] = [Layer(*row) for row in _LAYERS]

#: layers on each workload's path; a metric of a layer off the path reads 0
_QS_COMMON = ("core", "queues.pq", "queues.qoq", "backends", "util.counters", "trace",
              "loadgen.latency_p99_ms")
ON_PATH: Dict[str, tuple] = {
    _HOT: ("",),                         # every layer: misses cross the runtime
    _MIX: ("",),
    _CMD: _QS_COMMON + ("queues.codec", "queues.socket_queue"),
    _PING: _QS_COMMON,
}


def on_path(workload: str, metric: str) -> bool:
    return any(metric.startswith(prefix) for prefix in ON_PATH[workload])
