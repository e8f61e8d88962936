"""Common result record for all workloads.

Every workload run produces a :class:`WorkloadResult` carrying the answer
(for correctness checks against the sequential reference), wall-clock timing
split into computation and communication phases (the split Fig. 18 of the
paper reports), and the runtime counter deltas accumulated during the run
(the communication *work*, which is what the optimization comparisons use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.counters import CounterSnapshot


@dataclass
class WorkloadResult:
    """Outcome of one workload execution."""

    name: str
    config: str
    value: Any = None
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    counters: CounterSnapshot = field(default_factory=lambda: CounterSnapshot({}))
    workers: int = 1
    notes: str = ""

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds

    @property
    def communication_ops(self) -> int:
        """Client/handler interactions performed (see CounterSnapshot)."""
        return self.counters.communication_ops

    @property
    def sync_roundtrips(self) -> int:
        return self.counters["sync_roundtrips"]

    def __str__(self) -> str:
        return (
            f"{self.name}[{self.config}] total={self.total_seconds:.4f}s "
            f"(compute={self.compute_seconds:.4f}s comm={self.comm_seconds:.4f}s) "
            f"comm_ops={self.communication_ops}"
        )
