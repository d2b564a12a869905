"""Tracer core: nesting, clock readings, disabled mode, metrics capture,
the layer stack it shares with the monitor."""

from repro.monitor import WorkloadMonitor
from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector
from repro.trace import NOOP_SPAN, TraceAnalyzer, Tracer


def make_tracer(enabled=True):
    clock = SimulatedClock()
    metrics = MetricsCollector()
    tracer = Tracer(clock, metrics)
    if enabled:
        tracer.enable()
    return tracer, clock, metrics


class TestNesting:
    def test_parent_child_tree_and_ordering(self):
        tracer, clock, _ = make_tracer()
        with tracer.span("outer"):
            clock.charge(1.0)
            with tracer.span("first"):
                clock.charge(2.0)
            with tracer.span("second"):
                clock.charge(3.0)
            clock.charge(0.5)
        assert [s.name for s in tracer.iter_spans()] == \
            ["outer", "first", "second"]
        outer, = tracer.roots
        assert [c.name for c in outer.children] == ["first", "second"]
        assert outer.elapsed_s == 6.5
        assert outer.children[0].elapsed_s == 2.0
        assert outer.children[1].elapsed_s == 3.0
        # exclusive = inclusive minus children
        assert outer.self_s == 1.5

    def test_start_end_are_clock_readings(self):
        tracer, clock, _ = make_tracer()
        clock.charge(10.0)
        with tracer.span("s"):
            clock.charge(4.0)
        span, = tracer.roots
        assert span.start_s == 10.0 and span.end_s == 14.0

    def test_sibling_roots(self):
        tracer, clock, _ = make_tracer()
        with tracer.span("a"):
            clock.charge(1.0)
        with tracer.span("b"):
            clock.charge(1.0)
        assert [s.name for s in tracer.roots] == ["a", "b"]

    def test_current_is_innermost(self):
        """A new span's parent is the innermost open span."""
        tracer, _, _ = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                with tracer.span("under_inner"):
                    pass
            with tracer.span("under_outer"):
                pass
        with tracer.span("root"):
            pass
        assert [c.name for c in inner.children] == ["under_inner"]
        assert [c.name for c in outer.children] == ["inner", "under_outer"]
        assert [s.name for s in tracer.roots] == ["outer", "root"]

    def test_two_tracers_do_not_interleave(self):
        t1, clock1, _ = make_tracer()
        t2, _, _ = make_tracer()
        with t1.span("one"):
            with t2.span("two"):
                clock1.charge(1.0)
        assert [s.name for s in t1.iter_spans()] == ["one"]
        assert [s.name for s in t2.iter_spans()] == ["two"]

    def test_span_closed_on_exception(self):
        tracer, clock, _ = make_tracer()
        try:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    clock.charge(1.0)
                    raise ValueError("boom")
        except ValueError:
            pass
        with tracer.span("after"):
            pass
        outer, after = tracer.roots
        assert outer.end_s is not None
        assert outer.children[0].end_s is not None
        assert after.name == "after"  # a root: no span left open


class TestDisabledMode:
    def test_disabled_returns_shared_noop(self):
        tracer, _, _ = make_tracer(enabled=False)
        span = tracer.span("anything", attr=1)
        assert span is NOOP_SPAN
        assert tracer.span("other") is span  # no allocation per call
        with span as entered:
            entered.set(x=1).set(y=2)
        assert tracer.roots == [] and list(tracer.iter_spans()) == []

    def test_enable_disable_roundtrip(self):
        tracer, clock, _ = make_tracer(enabled=False)
        tracer.enable()
        with tracer.span("s"):
            clock.charge(1.0)
        tracer.disable()
        assert tracer.span("t") is NOOP_SPAN
        assert [s.name for s in tracer.roots] == ["s"]


class TestAnnotations:
    def test_set_and_add(self):
        tracer, _, _ = make_tracer()
        with tracer.span("s", fixed=1) as span:
            span.set(rows=10)
            span.set(rows=12, cursor="hit")
        assert span.attrs == {"fixed": 1, "rows": 12, "cursor": "hit"}

    def test_capture_metrics_delta(self):
        tracer, _, metrics = make_tracer()
        metrics.count("pages", 100)
        with tracer.span("q", capture_metrics=True):
            metrics.count("pages", 7)
            metrics.count("rows", 3)
        span, = tracer.roots
        assert span.counters == {"pages": 7, "rows": 3}

    def test_no_capture_means_no_counters(self):
        tracer, _, metrics = make_tracer()
        with tracer.span("q"):
            metrics.count("pages", 7)
        span, = tracer.roots
        assert span.counters == {}

    def test_find_and_clear(self):
        tracer, _, _ = make_tracer()
        with tracer.span("x"):
            with tracer.span("y"):
                pass
        with tracer.span("y"):
            pass
        assert len(tracer.find("y")) == 2
        tracer.clear()
        assert tracer.roots == [] and list(tracer.iter_spans()) == []


class TestLayerStack:
    """One layer stack serves the trace and the monitor's STAT records."""

    @staticmethod
    def _pair(trace=False, monitor=False):
        tracer, clock, metrics = make_tracer(enabled=trace)
        stat = WorkloadMonitor(clock, metrics, tracer=tracer)
        if monitor:
            stat.enable()
        return tracer, stat, clock

    @staticmethod
    def _query(tracer, clock, between=lambda: None):
        """ABAP 1.0, DBIF 0.5 + 0.25 around engine 2.0 + 0.5; ``between``
        runs inside the engine layer, between its two charges."""
        with tracer.span("power.query", capture_metrics=True, name="Q"):
            clock.charge(1.0)
            with tracer.span("dbif.call", layer="dbif"):
                clock.charge(0.5)
                with tracer.span("db.query", layer="engine"):
                    clock.charge(2.0)
                    between()
                    clock.charge(0.5)
                clock.charge(0.25)

    def test_both_off_is_the_shared_noop(self):
        tracer, _stat, _clock = self._pair()
        assert tracer.span("x", layer="engine") is NOOP_SPAN
        assert tracer.layer("engine") is NOOP_SPAN

    def test_monitor_alone_records_no_span(self):
        tracer, stat, clock = self._pair(monitor=True)
        step = stat.begin_step("dialog", "Q")
        self._query(tracer, clock)
        record = stat.end_step(step)
        assert tracer.roots == [] and list(tracer.iter_spans()) == []
        assert (record.abap_s, record.dbif_s, record.engine_s) == \
            (1.0, 0.75, 2.5)
        assert record.decomposed_s() == record.response_s == 4.25

    def test_monitor_disable_keeps_the_traced_layers(self):
        tracer, stat, clock = self._pair(trace=True, monitor=True)
        step = stat.begin_step("dialog", "Q")
        self._query(tracer, clock, between=stat.disable)
        assert stat.end_step(step) is None
        b, = TraceAnalyzer(tracer).query_breakdowns()
        assert (b.app_s, b.dbif_s, b.engine_s, b.total_s) == \
            (1.0, 0.75, 2.5, 4.25)

    def test_tracer_disable_keeps_the_stat_record_exact(self):
        tracer, stat, clock = self._pair(trace=True, monitor=True)
        step = stat.begin_step("dialog", "Q")
        self._query(tracer, clock, between=tracer.disable)
        record = stat.end_step(step)
        assert (record.abap_s, record.dbif_s, record.engine_s) == \
            (1.0, 0.75, 2.5)
        assert record.decomposed_s() == record.response_s == 4.25

    def test_commit_is_engine_time_in_the_trace(self):
        tracer, stat, clock = self._pair(trace=True, monitor=True)

        def commit():
            with tracer.layer("commit"):
                clock.charge(0.25)

        step = stat.begin_step("dialog", "Q")
        self._query(tracer, clock, between=commit)
        record = stat.end_step(step)
        b, = TraceAnalyzer(tracer).query_breakdowns()
        assert (record.engine_s, record.commit_s) == (2.5, 0.25)
        assert (b.app_s, b.dbif_s, b.engine_s, b.total_s) == \
            (1.0, 0.75, 2.75, 4.5)
