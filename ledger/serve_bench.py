"""The ``serve_*`` workloads: ``python -m repro serve`` under the ledger's load.

One pass is: set up (launch, wait for the port, preload the cases) as many
times as asked and keep the last gateway; an open-loop phase; a closed-loop
phase; the final sweep; a clean stop.  The same pass feeds the end-to-end
metrics and the counted half of the per-layer ones.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from ledger import harness, loadgen, stats, traffic
from ledger.traffic import CALLERS, OPEN_RATE, OPEN_SHARE, SERVE, SLO_S


async def _set_up(workload: str, cpus: Optional[List[int]]
                  ) -> Tuple[harness.Sut, loadgen.Transport, float, float]:
    """Launch and preload one gateway: (sut, warm keep-alive pool, set-up s, spawn s)."""
    sut, addr = harness.launch_gateway(SERVE[workload].backend, cpus)
    try:
        spawn_s = time.monotonic() - sut.launched
        pool = loadgen.Transport(addr, keep_alive=True, size=CALLERS)
        await loadgen.Run(pool, iter(())).preload(traffic.preload_requests(workload), CALLERS)
        return sut, pool, time.monotonic() - sut.launched, spawn_s
    except BaseException:
        sut.kill()
        raise


async def _pass(workload: str, seed: int, seconds: float, setups: int,
                cpus: Optional[List[int]], allowed: List[int]) -> Dict[str, Any]:
    spec = SERVE[workload]
    open_s = seconds * OPEN_SHARE
    closed_s = seconds - open_s
    setup_times: List[float] = []
    left_behind = 0
    for _ in range(setups - 1):
        sut, pool, setup_s, _spawn = await _set_up(workload, cpus)
        pool.close()
        setup_times.append(setup_s)
        left_behind += sut.stop()[1]
    sut, pool, setup_s, spawn_s = await _set_up(workload, cpus)
    setup_times.append(setup_s)
    try:
        addr = pool.addr
        transport = pool
        if not spec.keep_alive:
            pool.close()
            transport = loadgen.Transport(addr, keep_alive=False, size=CALLERS)
        run = loadgen.Run(transport, traffic.serve_requests(workload, seed))
        offsets = traffic.arrivals(workload, seed, OPEN_RATE, open_s)
        counters0 = await loadgen.fetch_json(addr, "/metrics")
        opened0 = transport.connections_opened
        gc.collect()
        gc.disable()                   # the instrument must not add pauses
        try:
            with harness.KeepAwake(allowed, seconds + 30.0):
                open_phase = await run.open_loop(offsets, open_s)
                usage0 = sut.usage()
                closed_phase = await run.closed_loop(CALLERS, closed_s)
        finally:
            gc.enable()
        usage = sut.usage()
        opened = transport.connections_opened - opened0
        counters = await loadgen.fetch_json(addr, "/metrics")
        health = await loadgen.fetch_json(addr, "/healthz")
        await run.sweep(spec.cases, CALLERS)
        transport.close()
        shutdown_s, left = sut.stop()
        left_behind += left
    finally:
        sut.kill()
    return {
        "setup_times": setup_times, "spawn_s": spawn_s, "shutdown_s": shutdown_s,
        "left_behind": left_behind, "open": open_phase, "closed": closed_phase,
        "usage0": usage0, "usage": usage, "connections": opened,
        "counters": {name: counters.get(name, 0) - counters0.get(name, 0)
                     for name in counters},
        "health": health, "run": run,
    }


def measure(workload: str, seed: int, seconds: float, setups: int) -> Dict[str, Any]:
    """Run one pass and derive every number the ledger reports from it."""
    allowed = sorted(os.sched_getaffinity(0))
    generator_cpus, gateway_cpus = harness.split_cpus()
    harness.pin_self(generator_cpus)
    try:
        raw = asyncio.run(_pass(workload, seed, seconds, setups, gateway_cpus, allowed))
    finally:
        harness.pin_self(allowed)
    open_phase, closed_phase, run = raw["open"], raw["closed"], raw["run"]
    checks = run.checks
    latencies = sorted(done - due for done, due in zip(open_phase.done, open_phase.due))
    service = sorted(done - sent for done, sent in zip(open_phase.done, open_phase.sent))
    lag = sorted(open_phase.lag)
    requests = open_phase.offered + closed_phase.offered
    answered = open_phase.ok + closed_phase.ok
    attempted = requests + run.extra_attempted
    failed = (open_phase.failed + closed_phase.failed + run.extra_failed
              + checks.violations + raw["left_behind"])
    within = sum(1 for latency in latencies if latency <= SLO_S)
    usage0, usage = raw["usage0"], raw["usage"]
    closed_s = closed_phase.end - closed_phase.start
    counters = raw["counters"]
    cache_reads = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    served = max(1, counters.get("serve_requests", 0))
    # a block is one sharded ask: every cache miss and every write dispatches one
    dispatched = max(1, counters.get("cache_misses", 0) + counters.get("cache_invalidations", 0))

    end_to_end = {
        "setup_s": statistics.median(raw["setup_times"]),
        "latency_p50_ms": stats.percentile(latencies, 0.50) * 1e3,
        "slo_met_share": within / open_phase.offered,
        "saturation_rps": stats.slice_rate_median(closed_phase.done, closed_phase.start,
                                                  closed_phase.end),
        "ops_per_s": open_phase.ok / (open_phase.end - open_phase.start),
        "rss_mb": usage["rss_parent_mb"] + usage["rss_workers_mb"],
        "ok_share": 1.0 - failed / attempted,
    }
    counted = {
        "loadgen.send_lag_p50_ms": stats.percentile(lag, 0.50) * 1e3,
        "loadgen.send_lag_p99_ms": stats.percentile(lag, 0.99) * 1e3,
        "loadgen.service_p50_ms": stats.percentile(service, 0.50) * 1e3,
        "loadgen.connect_p50_ms": statistics.median(open_phase.connect) * 1e3,
        "loadgen.cpu_share": closed_phase.cpu_s / closed_s,
        "loadgen.latency_p99_ms": stats.percentile(latencies, 0.99) * 1e3,
        "serve.http.bytes_out_per_req": (open_phase.nbytes + closed_phase.nbytes) / answered,
        "serve.cache.hit_ratio": counters.get("cache_hits", 0) / max(1, cache_reads),
        "serve.cache.entries": raw["health"]["cache"]["entries"],
        "serve.admission.shed_share": counters.get("serve_shed", 0) / served,
        "serve.gateway.connections_per_req": raw["connections"] / requests,
        "backends.spawn_s": raw["spawn_s"],
        "backends.shutdown_s": raw["shutdown_s"],
        "backends.parent_cpu_share": (usage["parent_cpu_s"] - usage0["parent_cpu_s"]) / closed_s,
        "backends.worker_cpu_share": (usage["worker_cpu_s"] - usage0["worker_cpu_s"]) / closed_s,
        "backends.rss_parent_mb": usage["rss_parent_mb"],
        "backends.rss_workers_mb": usage["rss_workers_mb"],
        "backends.fds_open": usage["fds_open"],
    }
    counted.update(stats.runtime_counts(counters, dispatched))
    notes = []
    if counted["loadgen.cpu_share"] > 0.85:
        notes.append("loadgen.cpu_share > 0.85 in the closed-loop phase: "
                     "saturation_rps is the generator's limit, not the gateway's")
    return {
        "attempted": attempted, "failed": failed,
        "correct": checks.violations == 0 and raw["left_behind"] == 0,
        "end_to_end": end_to_end, "counted": counted, "notes": notes,
        "detail": {
            "latency_samples": len(latencies), "offered_open": open_phase.offered,
            "requests_closed": closed_phase.offered, "acked_writes": len(checks.acked),
            "probes": checks.probes, "probe_misses": checks.probe_misses,
            "lost_writes": checks.lost, "duplicated_writes": checks.duplicated,
            "processes_left_behind": raw["left_behind"],
            "setup_times_s": raw["setup_times"],
        },
    }
