#!/usr/bin/env python3
"""Soak the process backend's failover journal: minutes, not seconds.

Run standalone with::

    PYTHONPATH=src python benchmarks/soak_journal.py [--seconds 120]

The traffic has the shape of the ledger's ``qs_command_stream`` workload: two
handlers on ``process``, one closed-loop client thread each, 32 commands then
one query per separate block, every query checked.  A long-running process must
stay bounded, so the run fails (exit 1) unless

* resident memory of the parent plus its workers, median of the last third of
  the run, is within 10% of the median of the first third;
* the parent's open descriptors are the same at the end as at the start;
* the journal never holds more than two checkpoint intervals per handler;
* after a ``SIGKILL`` of one worker the next query answers correctly within a
  second, whatever the uptime: recovery is the last checkpoint plus the tail
  of the journal, not the handler's lifetime.

Not part of the tier-1 tests; ``make soak`` runs it, and ``make
failover-smoke`` runs a 10 s cut.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import threading
import time
from typing import Any, Dict, List

from repro import QsRuntime, SeparateObject, command, query
from repro.backends.process_worker import CHECKPOINT_MIN_FRAMES

COMMANDS = 32
#: frames one block journals: the commands, then sync + invoke + end
BLOCK_FRAMES = COMMANDS + 3
HANDLERS = 2
_PAGE = os.sysconf("SC_PAGE_SIZE")


class Log(SeparateObject):
    def __init__(self) -> None:
        self.logged = 0
        self.asked = 0

    @command
    def log(self, _item: int) -> None:
        self.logged += 1

    @query
    def progress(self) -> int:
        """Commands logged plus queries answered so far, this one included."""
        self.asked += 1
        return self.logged + self.asked


def _rss_mib(pids: List[int]) -> float:
    pages = 0
    for pid in pids:
        with open(f"/proc/{pid}/statm") as statm:
            pages += int(statm.read().split()[1])
    return pages * _PAGE / (1 << 20)


def _fds_open() -> int:
    return len(os.listdir("/proc/self/fd"))


def _worker_pids(rt: Any, names: List[str]) -> List[int]:
    placement = rt.backend.describe_placement(names)
    return [int(placement[name].split(":")[1]) for name in names]


def _client(rt: Any, ref: Any, stop: threading.Event, tally: Dict[str, int]) -> None:
    """Back-to-back blocks; block ``k``'s query must answer ``k * 33``."""
    while not stop.is_set():
        with rt.separate(ref) as handler:
            for item in range(COMMANDS):
                handler.log(item)
            value = handler.progress()
        tally["blocks"] += 1
        if value != tally["blocks"] * (COMMANDS + 1):
            tally["wrong"] += 1


def soak(seconds: float) -> Dict[str, Any]:
    names = [f"log-{i}" for i in range(HANDLERS)]
    rss: List[float] = []
    frames: List[int] = []
    with QsRuntime(backend="process") as rt:
        refs = [rt.new_handler(name).create(Log) for name in names]
        stop = threading.Event()
        tallies = [{"blocks": 0, "wrong": 0} for _ in refs]
        for ref, tally in zip(refs, tallies):
            rt.client(_client, rt, ref, stop, tally)
        time.sleep(0.5)  # every connection made
        pids = [os.getpid()] + _worker_pids(rt, names)
        fds_first = _fds_open()
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            time.sleep(0.25)
            rss.append(_rss_mib(pids))
            frames.append(rt.backend.journal_size()[1])
        fds_last = _fds_open()
        stop.set()
        rt.join_clients()

        killed = time.monotonic()
        os.kill(pids[1], signal.SIGKILL)
        with rt.separate(refs[0]) as handler:
            value = handler.progress()
        recovery_s = time.monotonic() - killed
        stats = rt.stats()

    third = max(1, len(rss) // 3)
    result = {
        "seconds": seconds,
        "blocks": sum(tally["blocks"] for tally in tallies),
        "wrong": sum(tally["wrong"] for tally in tallies),
        "rss_first_third_mb": statistics.median(rss[:third]),
        "rss_last_third_mb": statistics.median(rss[-third:]),
        "fds_first": fds_first,
        "fds_last": fds_last,
        "journal_frames_max": max(frames),
        "journal_frames_bound": HANDLERS * (2 * CHECKPOINT_MIN_FRAMES + BLOCK_FRAMES),
        "journal_checkpoints": stats["journal_checkpoints"],
        "recovery_s": recovery_s,
        "recovered_value_ok": value == tallies[0]["blocks"] * (COMMANDS + 1) + 1,
    }
    result["violations"] = [what for what, broken in (
        ("a query answered wrongly", result["wrong"] > 0),
        ("rss grew or shrank by more than 10%",
         abs(result["rss_last_third_mb"] / result["rss_first_third_mb"] - 1) > 0.10),
        ("open descriptors changed", fds_first != fds_last),
        ("the journal outgrew two checkpoint intervals per handler",
         result["journal_frames_max"] >= result["journal_frames_bound"]),
        ("recovery took a second or more", recovery_s >= 1.0),
        ("the first query after the kill answered wrongly", not result["recovered_value_ok"]),
    ) if broken]
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=120.0)
    args = parser.parse_args(argv)
    result = soak(args.seconds)
    print(json.dumps(result, indent=2))
    return 1 if result["violations"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
