"""Span tracing: nesting, the disabled fast path, and the record cap."""

import threading

import pytest

from repro import obs
from repro.exceptions import ValidationError
from repro.obs.trace import NO_OP_SPAN, Tracer


class TestSpanNesting:
    def test_parent_child_relationship(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["outer"].parent is None
        assert by_name["inner"].parent == "outer"
        # Inner finishes first.
        assert [span.name for span in tracer.spans] == ["inner", "outer"]

    def test_active_span_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.active_span is None
        with tracer.span("outer") as outer:
            assert tracer.active_span is outer
            with tracer.span("inner") as inner:
                assert tracer.active_span is inner
            assert tracer.active_span is outer
        assert tracer.active_span is None

    def test_nesting_is_per_thread(self):
        tracer = Tracer()
        barrier = threading.Barrier(2, timeout=10)
        active = {}

        def work(label):
            barrier.wait()
            with tracer.span(f"outer-{label}"):
                # Both outer spans are open before either inner opens.
                barrier.wait()
                with tracer.span(f"inner-{label}") as inner:
                    barrier.wait()
                    active[label] = tracer.active_span is inner

        threads = [
            threading.Thread(target=work, args=(label,))
            for label in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        by_name = {span.name: span for span in tracer.spans}
        for label in ("a", "b"):
            assert by_name[f"outer-{label}"].parent is None
            assert by_name[f"inner-{label}"].parent == f"outer-{label}"
            assert active[label]
        assert tracer.active_span is None

    def test_durations_are_recorded(self):
        tracer = Tracer()
        with tracer.span("timed", size=3) as span:
            span.set("iterations", 7)
        finished = tracer.spans[0]
        assert finished.duration is not None and finished.duration >= 0.0
        assert finished.attributes == {"size": 3, "iterations": 7}

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert len(tracer.spans) == 1
        assert tracer.active_span is None

    def test_span_summary_aggregates_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("repeated"):
                pass
        summary = tracer.span_summary()
        assert summary["repeated"]["count"] == 3
        assert summary["repeated"]["total_s"] == pytest.approx(
            sum(span.duration for span in tracer.spans)
        )
        assert summary["repeated"]["mean_s"] == pytest.approx(
            summary["repeated"]["total_s"] / 3
        )


class TestDisabledFastPath:
    def test_disabled_tracer_returns_the_shared_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", key="value")
        assert span is NO_OP_SPAN
        with span as entered:
            entered.set("ignored", 1)
        assert tracer.spans == []

    def test_module_level_span_is_noop_when_disabled(self):
        assert not obs.is_enabled()
        assert obs.span("linalg.gauss_seidel", size=10) is NO_OP_SPAN

    def test_events_not_recorded_while_disabled(self):
        tracer = Tracer(enabled=False)
        tracer.event("server_failure", t=1.0)
        assert tracer.events == []


class TestEventsAndCaps:
    def test_events_record_kind_and_fields(self):
        tracer = Tracer()
        tracer.event("server_failure", t=2.5, server="wf-engine#0")
        assert tracer.events == [
            {
                "type": "event",
                "event": "server_failure",
                "t": 2.5,
                "server": "wf-engine#0",
            }
        ]

    def test_record_cap_counts_drops(self):
        tracer = Tracer(max_records=2)
        for i in range(5):
            tracer.event("tick", i=i)
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_span_cap_counts_drops(self):
        tracer = Tracer(max_records=1)
        with tracer.span("kept"):
            pass
        with tracer.span("dropped"):
            pass
        assert [span.name for span in tracer.spans] == ["kept"]
        assert tracer.dropped == 1

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValidationError):
            Tracer(max_records=0)

    def test_reset_clears_records(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.event("e")
        tracer.reset()
        assert tracer.spans == []
        assert tracer.events == []
        assert tracer.dropped == 0


class TestModuleApi:
    def test_enable_disable_round_trip(self):
        assert not obs.is_enabled()
        obs.enable()
        try:
            assert obs.is_enabled()
            obs.count("test.module.counter", 2)
            with obs.span("test.module.span"):
                pass
            obs.observe("test.module.histogram", 3.0)
            obs.set_max("test.module.gauge", 9.0)
            obs.event("test.module.event", t=0.0)
            registry = obs.registry()
            assert registry.counter("test.module.counter").value == 2.0
            assert registry.gauge("test.module.gauge").value == 9.0
            assert registry.histogram("test.module.histogram").count == 1
            assert obs.tracer().span_summary()["test.module.span"][
                "count"
            ] == 1
        finally:
            obs.disable()
            obs.reset()

    def test_reset_redeclares_well_known_metrics(self):
        obs.reset()
        names = set(obs.registry().metrics())
        declared = {name for _, name, _ in obs.DECLARED_METRICS}
        assert declared <= names
