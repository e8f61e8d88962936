"""Tests for the pluggable scheduling-policy layer and schedule record/replay.

The contract under test, in order of appearance:

* FIFO reproduces the scheduler's historical behaviour bit-exactly (golden
  decision trace, and identity with a policy-less scheduler);
* seeded policies are deterministic (same seed = same schedule) and actually
  explore (different seeds diverge);
* a recorded trace replays to identical counters and virtual times, and a
  tampered or mismatched trace fails with ``ScheduleDivergenceError``;
* the selection plumbing (config, backend spec strings) resolves policies.
"""

from __future__ import annotations

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.backends import SimBackend, create_backend
from repro.config import QsConfig
from repro.errors import ScheduleDivergenceError
from repro.sched.policy import (
    Decision,
    FifoPolicy,
    PctPolicy,
    RandomPolicy,
    ReplayPolicy,
    ScheduleTrace,
    make_policy,
)
from repro.sched.scheduler import CooperativeScheduler
from repro.sched.tasks import Compute, as_generator


def three_compute_tasks(scheduler: CooperativeScheduler) -> None:
    for i in range(3):
        scheduler.spawn(as_generator([Compute(1.0), Compute(1.0)]), name=f"t{i}")


class Counter(SeparateObject):
    def __init__(self) -> None:
        self.value = 0

    @command
    def increment(self) -> None:
        self.value += 1

    @query
    def read(self) -> int:
        return self.value


def fingerprint(policy) -> tuple:
    """(virtual time, decision names, schedule-relevant counters) of one run."""
    backend = SimBackend(policy=policy, record_schedule=True)
    with QsRuntime("all", backend=backend) as rt:
        refs = [rt.new_handler(f"h{i}").create(Counter) for i in range(2)]

        def worker(k: int) -> None:
            for _ in range(3):
                with rt.separate(refs[k % 2]) as c:
                    c.increment()
                    c.read()

        for k in range(3):
            rt.client(worker, k, name=f"w{k}")
        rt.join_clients()
        virtual = rt.backend.now()
        counters = {k: v for k, v in rt.stats().as_dict().items() if v}
    trace = backend.schedule_recording()
    return virtual, tuple(d.chosen for d in trace.decisions), counters


class TestFifoGolden:
    def test_golden_decision_trace(self):
        """FIFO always dispatches the oldest ready task — frozen schedule."""
        sched = CooperativeScheduler(ncores=1, record_schedule=True)
        three_compute_tasks(sched)
        sched.run()
        trace = sched.recorded_schedule()
        # the only multi-candidate drains are at t=0 (one core serialises the
        # rest, waking exactly one task per completion afterwards); FIFO
        # always picks index 0
        assert [d.to_json() for d in trace.decisions] == [
            [0, ["t0", "t1", "t2"]],
            [0, ["t1", "t2"]],
        ]
        assert [d.chosen for d in trace.decisions] == ["t0", "t1"]

    def test_fifo_matches_policyless_scheduler(self):
        """The policy seam must not perturb the historical schedule."""
        default = fingerprint(None)
        fifo = fingerprint(FifoPolicy())
        assert default == fifo

    def test_single_candidate_steps_are_not_recorded(self):
        sched = CooperativeScheduler(ncores=1, record_schedule=True)
        sched.spawn(as_generator([Compute(1.0), Compute(1.0)]), name="only")
        sched.run()
        assert sched.recorded_schedule().decisions == []

    def test_recording_off_by_default(self):
        sched = CooperativeScheduler(ncores=1)
        three_compute_tasks(sched)
        sched.run()
        assert sched.recorded_schedule() is None


class TestSeededDeterminism:
    def test_same_seed_same_schedule(self):
        assert fingerprint(RandomPolicy(7)) == fingerprint(RandomPolicy(7))

    def test_different_seeds_diverge(self):
        baseline = fingerprint(RandomPolicy(0))
        assert any(fingerprint(RandomPolicy(seed)) != baseline for seed in range(1, 8)), \
            "eight random seeds should not all produce the identical schedule"

    def test_pct_same_seed_same_schedule(self):
        assert fingerprint(PctPolicy(3)) == fingerprint(PctPolicy(3))

    def test_sched_decisions_counter_bumped(self):
        _, decisions, counters = fingerprint(RandomPolicy(1))
        assert counters.get("sched_decisions", 0) == len(decisions)


class TestReplay:
    def _record(self, seed: int):
        backend = SimBackend(policy=RandomPolicy(seed), record_schedule=True)
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("h").create(Counter)

            def worker(k: int) -> None:
                for _ in range(2):
                    with rt.separate(ref) as c:
                        c.increment()
                        c.read()

            for k in range(3):
                rt.client(worker, k, name=f"w{k}")
            rt.join_clients()
            virtual = rt.backend.now()
            counters = {k: v for k, v in rt.stats().as_dict().items() if v}
        return backend.schedule_recording(), virtual, counters

    def _replay(self, trace: ScheduleTrace):
        backend = SimBackend(policy=ReplayPolicy(trace), record_schedule=True)
        with QsRuntime("all", backend=backend) as rt:
            ref = rt.new_handler("h").create(Counter)

            def worker(k: int) -> None:
                for _ in range(2):
                    with rt.separate(ref) as c:
                        c.increment()
                        c.read()

            for k in range(3):
                rt.client(worker, k, name=f"w{k}")
            rt.join_clients()
            virtual = rt.backend.now()
            counters = {k: v for k, v in rt.stats().as_dict().items() if v}
        return backend.schedule_recording(), virtual, counters

    def test_replay_reproduces_counters_and_virtual_time(self):
        trace, virtual, counters = self._record(seed=11)
        replayed_trace, replayed_virtual, replayed_counters = self._replay(trace)
        assert replayed_virtual == virtual
        assert replayed_counters == counters
        assert [d.to_json() for d in replayed_trace.decisions] == \
            [d.to_json() for d in trace.decisions]

    def test_trace_json_roundtrip(self, tmp_path):
        trace, _, _ = self._record(seed=5)
        trace.meta = {"workload": "unit", "note": "roundtrip"}
        path = tmp_path / "schedule.json"
        trace.save(str(path))
        loaded = ScheduleTrace.load(str(path))
        assert loaded.policy == trace.policy
        assert loaded.seed == trace.seed
        assert loaded.meta == trace.meta
        assert loaded.decisions == trace.decisions

    def test_tampered_trace_raises_divergence(self):
        trace, _, _ = self._record(seed=11)
        assert trace.decisions, "the workload must involve real decisions"
        first = trace.decisions[0]
        trace.decisions[0] = Decision(index=first.index,
                                      candidates=first.candidates + ("intruder",))
        with pytest.raises(ScheduleDivergenceError, match="diverged at decision 0"):
            self._replay(trace)

    def test_replay_disambiguates_duplicate_task_names(self):
        """Decisions are replayed by index, so equal names cannot alias."""

        def record_or_replay(policy):
            sched = CooperativeScheduler(ncores=1, policy=policy, record_schedule=True)
            order = []

            def worker(tag):
                order.append(tag)
                yield Compute(1.0)

            for tag in ("a", "b"):
                sched.spawn(worker(tag), name="twin")  # deliberately identical names
            sched.run()
            return order, sched.recorded_schedule()

        # seed 2 makes the random policy pick the *second* twin first
        seed = next(s for s in range(20)
                    if record_or_replay(RandomPolicy(s))[0] == ["b", "a"])
        order, trace = record_or_replay(RandomPolicy(seed))
        replayed_order, _ = record_or_replay(ReplayPolicy(trace))
        assert replayed_order == order == ["b", "a"]

    def test_truncated_trace_raises_divergence(self):
        trace, _, _ = self._record(seed=11)
        trace.decisions = trace.decisions[:1]
        with pytest.raises(ScheduleDivergenceError, match="exhausted"):
            self._replay(trace)

    def test_unsupported_trace_version_rejected(self):
        with pytest.raises(Exception, match="version"):
            ScheduleTrace.from_json({"version": 99, "decisions": []})


class TestSelectionPlumbing:
    def test_make_policy_names(self):
        assert isinstance(make_policy("fifo"), FifoPolicy)
        assert isinstance(make_policy("random", seed=3), RandomPolicy)
        assert isinstance(make_policy("pct", seed=3), PctPolicy)
        assert isinstance(make_policy(None), FifoPolicy)
        instance = RandomPolicy(9)
        assert make_policy(instance) is instance

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("quantum")

    def test_config_carries_policy(self):
        config = QsConfig.all().with_(backend="sim", sched_policy="random", sched_seed=13)
        with QsRuntime(config) as rt:
            assert rt.backend.policy.name == "random"
            assert rt.backend.policy.seed == 13
        assert "sched=random@13" in config.describe()

    def test_backend_spec_string_selects_policy(self):
        backend = create_backend("sim:random:21")
        with QsRuntime("all", backend=backend) as rt:
            assert rt.backend.policy.name == "random"
            assert rt.backend.policy.seed == 21

    def test_env_var_spec_selects_policy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sim:pct:4")
        with QsRuntime("all") as rt:
            assert rt.backend.name == "sim"
            assert rt.backend.policy.name == "pct"
            assert rt.backend.policy.seed == 4

    def test_policy_spec_on_threads_rejected(self):
        with pytest.raises(ValueError, match="only sim takes a policy"):
            create_backend("threads:random")

    def test_bad_seed_in_spec_rejected(self):
        with pytest.raises(ValueError, match="invalid scheduling seed"):
            create_backend("sim:random:many")

    def test_pct_parameter_validation(self):
        with pytest.raises(ValueError):
            PctPolicy(depth=0)
        with pytest.raises(ValueError):
            PctPolicy(steps=0)
