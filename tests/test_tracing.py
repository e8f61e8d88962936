"""Tests for runtime instrumentation (tracing) and the trace guarantee checker."""

import pytest

from repro import QsRuntime, SeparateObject, command, query
from repro.core.guarantees import assert_guarantees, check_runtime, check_trace
from repro.errors import ScoopError
from repro.util.tracing import NullTracer, TraceEvent, Tracer


class Register(SeparateObject):
    def __init__(self):
        self.values = []

    @command
    def push(self, value):
        self.values.append(value)

    @query
    def size(self):
        return len(self.values)


class TestTracer:
    def test_records_in_sequence_order(self):
        tracer = Tracer()
        tracer.record("reserve", "h", client="c")
        tracer.record("log-call", "h", client="c", feature="f")
        events = tracer.events()
        assert [e.kind for e in events] == ["reserve", "log-call"]
        assert events[0].seq < events[1].seq

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record("teleport", "h")

    def test_filtering_by_fields(self):
        tracer = Tracer()
        tracer.record("exec", "a", client="c1", feature="f")
        tracer.record("exec", "b", client="c1", feature="g")
        tracer.record("sync", "a", client="c2")
        assert len(tracer.events(kind="exec")) == 2
        assert [e.feature for e in tracer.events(handler="a", kind="exec")] == ["f"]

    def test_bounded_buffer_drops_and_counts(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.record("sync", "h", client=f"c{i}")
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_clear_resets_everything(self):
        tracer = Tracer(max_events=1)
        tracer.record("sync", "h")
        tracer.record("sync", "h")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_counts_by_kind(self):
        tracer = Tracer()
        tracer.record("sync", "h")
        tracer.record("sync", "h")
        tracer.record("exec", "h")
        assert tracer.counts_by_kind() == {"sync": 2, "exec": 1}

    def test_null_tracer_is_inert_but_hands_out_block_ids(self):
        null = NullTracer()
        assert null.record("sync", "h") is None
        assert null.events() == []
        assert len(null) == 0
        a, b = null.next_block_id(), null.next_block_id()
        assert a != b

    def test_invalid_max_events_rejected(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)


class TestRuntimeTracing:
    def test_untraced_runtime_records_nothing(self):
        with QsRuntime("all") as rt:
            reg = rt.new_handler("reg").create(Register)
            with rt.separate(reg) as r:
                r.push(1)
            assert rt.trace_events() == []
            assert not rt.tracing_enabled

    def test_traced_runtime_records_full_block_lifecycle(self):
        with QsRuntime("all", trace=True) as rt:
            reg = rt.new_handler("reg").create(Register)
            with rt.separate(reg) as r:
                r.push(1)
                r.push(2)
                assert r.size() == 2
            rt.handler("reg").shutdown()
            kinds = {e.kind for e in rt.trace_events(handler="reg")}
            assert {"reserve", "log-call", "log-query", "release", "exec"} <= kinds
            # both pushes executed by the handler, in order
            execs = [e.feature for e in rt.trace_events(handler="reg", kind="exec")]
            assert execs == ["push", "push"]

    def test_dynamic_coalescing_shows_up_as_elided_syncs(self):
        with QsRuntime("all", trace=True) as rt:
            reg = rt.new_handler("reg").create(Register)
            with rt.separate(reg) as r:
                r.push(1)  # the handler is busy with this block: the first query syncs
                r.size()
                r.size()
                r.size()
            events = rt.trace_events(handler="reg")
        syncs = [e for e in events if e.kind == "sync"]
        elided = [e for e in events if e.kind == "sync-elided"]
        assert len(syncs) == 1
        assert len(elided) == 2

    def test_queries_on_an_idle_handler_show_up_as_elided_syncs_only(self):
        with QsRuntime("all", trace=True) as rt:
            reg = rt.new_handler("reg").create(Register)
            with rt.separate(reg) as r:
                r.size()
                r.size()
                r.size()
            events = rt.trace_events(handler="reg")
            stats = rt.stats()
        kinds = [e.kind for e in events]
        assert kinds.count("sync") == 0
        assert kinds.count("sync-elided") == 3
        assert (stats["sync_roundtrips"], stats["syncs_elided"]) == (0, 3)
        # the handler never saw the block: no handler-side event at all
        assert "end-block" not in kinds

    def test_every_optimization_level_satisfies_the_guarantees(self, level):
        with QsRuntime(level, trace=True) as rt:
            reg = rt.new_handler("reg").create(Register)

            def client(n):
                for i in range(3):
                    with rt.separate(reg) as r:
                        r.push((n, i))
                        r.size()

            threads = [rt.client(client, n, name=f"client-{n}") for n in range(3)]
            rt.join_clients()
            rt.handler("reg").shutdown()
            report = check_runtime(rt)
            assert report.ok, [str(v) for v in report.violations]
            # 3 clients x 3 blocks all served
            assert len(report.service_order["reg"]) == 9

    def test_check_runtime_requires_tracing(self):
        with QsRuntime("all") as rt:
            with pytest.raises(ScoopError):
                check_runtime(rt)


class TestGuaranteeChecker:
    @staticmethod
    def _event(seq, kind, **kw):
        return TraceEvent(seq=seq, kind=kind, handler=kw.pop("handler", "h"), **kw)

    def test_clean_trace_passes(self):
        events = [
            self._event(0, "reserve", client="a", block=1),
            self._event(1, "log-call", client="a", feature="f", block=1),
            self._event(2, "log-call", client="a", feature="g", block=1),
            self._event(3, "release", client="a", block=1),
            self._event(4, "exec", client="a", feature="f", block=1),
            self._event(5, "exec", client="a", feature="g", block=1),
            self._event(6, "end-block", client="a", block=1),
        ]
        report = check_trace(events)
        assert report.ok
        assert report.service_order["h"] == [1]

    def test_out_of_order_execution_detected(self):
        events = [
            self._event(0, "log-call", client="a", feature="f", block=1),
            self._event(1, "log-call", client="a", feature="g", block=1),
            self._event(2, "exec", client="a", feature="g", block=1),
            self._event(3, "exec", client="a", feature="f", block=1),
        ]
        report = check_trace(events)
        assert any(v.kind == "order" for v in report.violations)

    def test_interleaved_blocks_detected(self):
        events = [
            self._event(0, "log-call", client="a", feature="f1", block=1),
            self._event(1, "log-call", client="a", feature="f2", block=1),
            self._event(2, "log-call", client="b", feature="g", block=2),
            self._event(3, "exec", client="a", feature="f1", block=1),
            self._event(4, "exec", client="b", feature="g", block=2),
            self._event(5, "exec", client="a", feature="f2", block=1),
        ]
        report = check_trace(events)
        assert any(v.kind == "interleaving" for v in report.violations)

    def test_lost_call_detected_only_for_released_blocks(self):
        lost = [
            self._event(0, "log-call", client="a", feature="f", block=1),
            self._event(1, "release", client="a", block=1),
        ]
        assert any(v.kind == "lost-call" for v in check_trace(lost).violations)

        still_open = [self._event(0, "log-call", client="a", feature="f", block=1)]
        assert check_trace(still_open).ok

    def test_foreign_execution_detected(self):
        events = [
            self._event(0, "log-call", client="a", feature="f", block=1),
            self._event(1, "exec", client="a", feature="f", block=1),
            self._event(2, "exec", client="a", feature="phantom", block=1),
        ]
        report = check_trace(events)
        assert any(v.kind == "foreign-exec" for v in report.violations)

    def test_assert_guarantees_raises_with_summary(self):
        events = [
            self._event(0, "log-call", client="a", feature="f", block=1),
            self._event(1, "log-call", client="a", feature="g", block=1),
            self._event(2, "exec", client="a", feature="g", block=1),
        ]
        with pytest.raises(ScoopError) as err:
            assert_guarantees(events)
        assert "order" in str(err.value)
