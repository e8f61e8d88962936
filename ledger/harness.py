"""Harness hygiene: the system under test as a process group, and ``/proc``.

The system under test always runs in its own session, so one signal reaches
the gateway (or the Qs child) and every worker it spawned, whatever path the
benchmark leaves by.
"""

from __future__ import annotations

import os
import platform
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from ledger import ROOT, SRC

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")
_SERVING = re.compile(r"serving cases on http://([\d.]+):(\d+)")


def child_env() -> Dict[str, str]:
    """The environment children run in: ``repro`` and ``ledger`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env.pop("REPRO_BACKEND", None)
    return env


def _stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def _live_pids(field: int, value: int) -> List[int]:
    """Non-zombie processes whose ``stat`` field ``field`` equals ``value``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat(int(name))
        if fields is not None and fields[0] != "Z" and int(fields[field]) == value:
            out.append(int(name))
    return out


def group_pids(pgid: int) -> List[int]:
    """Live processes of one process group."""
    return _live_pids(2, pgid)


def child_pids(parent: int) -> List[int]:
    """Live direct children of ``parent``."""
    return _live_pids(1, parent)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used so far."""
    fields = _stat(pid)
    return (int(fields[11]) + int(fields[12])) / _TICK if fields else 0.0


def rss_mib(pid: int) -> float:
    fields = _stat(pid)
    return int(fields[21]) * _PAGE / (1 << 20) if fields else 0.0


def fds_open(pid: int) -> int:
    try:
        return len(os.listdir(f"/proc/{pid}/fd"))
    except OSError:
        return 0


def split_cpus() -> Tuple[Optional[List[int]], Optional[List[int]]]:
    """The CPUs this process may use, split in two: (the last one, for whatever
    generates load; the others, for what it drives).  ``(None, None)`` with a
    single CPU: nothing is pinned then.

    Left to the scheduler, the two sides share a CPU on some runs and not on
    others, and every latency and rate then has two modes: serve_hot_read
    read p50 0.47 or 0.70 ms and 3900 or 2300 req/s, qs_query_pingpong 6.8k
    or 16.7k blocks/s, on alternate runs of the same code.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[-1:], cpus[:-1]


def pin_self(cpus: Optional[List[int]]) -> None:
    """Move the calling thread (and what it starts from now on) to ``cpus``."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:                # a sandbox that forbids it: run unpinned
            pass


_SPIN = """
import os, sys, time
cpu, parent, deadline = int(sys.argv[1]), int(sys.argv[2]), time.monotonic() + float(sys.argv[3])
try:
    os.sched_setaffinity(0, [cpu])
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except OSError:
    sys.exit(0)        # never spin at a priority that would take CPU from the run
while os.getppid() == parent and time.monotonic() < deadline:
    for _ in range(200000):
        pass
"""


class KeepAwake:
    """Keep every CPU of the timed window from going idle.

    One process per CPU spins at ``SCHED_IDLE`` priority: it runs only when
    nothing else wants the CPU and is preempted the moment anything does.  On
    a virtual machine an idle CPU is a halted vCPU, and waking it costs a trip
    through the host's scheduler that swings with the neighbours' load; every
    request pays it several times.  With the CPUs kept awake serve_hot_read's
    p50 fell from 0.46 to 0.30 ms and its run-to-run spread from 12% to 8%
    (35 alternating pairs), serve_write_mix's spread from 19% to 4% and
    qs_command_stream's from 24% to 5% (6 pairs).  A spinner ends when its
    parent does or after ``seconds``, whichever is first, so none outlives
    the benchmark; where the sandbox forbids ``SCHED_IDLE`` none is started.
    """

    def __init__(self, cpus: List[int], seconds: float) -> None:
        self.cpus = cpus
        self.seconds = seconds
        self.spinners: List[subprocess.Popen] = []

    def __enter__(self) -> "KeepAwake":
        for cpu in self.cpus:
            self.spinners.append(subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(cpu), str(os.getpid()),
                 repr(self.seconds)]))
        time.sleep(0.15)               # their interpreters start at normal priority
        return self

    def __exit__(self, *_exc: object) -> None:
        for spinner in self.spinners:
            spinner.kill()
        for spinner in self.spinners:
            spinner.wait()


class Sut:
    """A system under test launched as the leader of its own session."""

    def __init__(self, argv: List[str], cpus: Optional[List[int]] = None) -> None:
        allowed = os.sched_getaffinity(0)
        pin_self(cpus)                 # the child inherits it, and so do its workers
        try:
            self.launched = time.monotonic()
            self.proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                         stdout=subprocess.PIPE, text=True,
                                         start_new_session=True)
        finally:
            pin_self(sorted(allowed))
        self.pid = self.proc.pid

    def read_line(self, timeout: float) -> str:
        """The next stdout line; raises if none arrives in ``timeout``."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"system under test (pid {self.pid}) said nothing "
                               f"within {timeout:.0f} s or exited")
        return line

    def workers(self) -> List[int]:
        return [pid for pid in group_pids(self.pid) if pid != self.pid]

    def usage(self) -> Dict[str, float]:
        """CPU seconds, resident MiB and descriptors, leader and workers apart."""
        workers = self.workers()
        return {
            "parent_cpu_s": cpu_seconds(self.pid),
            "worker_cpu_s": sum(cpu_seconds(pid) for pid in workers),
            "rss_parent_mb": rss_mib(self.pid),
            "rss_workers_mb": sum(rss_mib(pid) for pid in workers),
            "fds_open": fds_open(self.pid),
        }

    def stop(self, interrupt: bool = True, grace: float = 10.0) -> Tuple[float, int]:
        """Interrupt (or just await) the leader, then kill the whole group.

        Returns (seconds the clean shutdown took, processes that had to be
        killed).  A process left behind is a harness failure, not noise.
        """
        began = time.monotonic()
        if self.proc.poll() is None:
            if interrupt:
                self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(grace)
            except subprocess.TimeoutExpired:
                pass
        took = time.monotonic() - began
        left = len(group_pids(self.pid))
        self.kill()
        return took, left

    def kill(self) -> None:
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def launch_gateway(backend: str, cpus: Optional[List[int]],
                   shards: int = 4) -> Tuple[Sut, Tuple[str, int]]:
    """``python -m repro serve`` on a free loopback port; returns once it listens."""
    sut = Sut([sys.executable, "-m", "repro", "--backend", backend, "serve",
               "--host", "127.0.0.1", "--port", "0", "--shards", str(shards)], cpus)
    try:
        match = _SERVING.search(sut.read_line(60.0))
        if match is None:
            raise RuntimeError("the gateway did not announce its address")
    except BaseException:
        sut.kill()
        raise
    return sut, (match.group(1), int(match.group(2)))


def _git_sha() -> str:
    try:
        # the ceiling keeps git inside the checkout when that is not a repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def meta(seed: int) -> Dict[str, object]:
    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg()[0],
        "network": "loopback (127.0.0.1) only",
    }
