"""TraceAnalyzer layer breakdowns and the JSON/Chrome exporters."""

import pytest

from repro.engine.exec.profile import OperatorProfile
from repro.sim.clock import SimulatedClock
from repro.sim.metrics import MetricsCollector
from repro.trace import TraceAnalyzer, Tracer, to_chrome, to_json


def traced_query(with_profile=False):
    """A hand-built power.query: ABAP work, one DBIF call wrapping
    engine work, and one direct engine call (the rdbms idiom).  Each
    span declares its layer, as the program's spans do."""
    clock = SimulatedClock()
    metrics = MetricsCollector()
    tracer = Tracer(clock, metrics).enable()
    profile = None
    if with_profile:
        profile = OperatorProfile("SeqScan(lineitem)")
        profile.loops = 1
        profile.rows_out = 50
        profile.pages_read = 8.0
        profile.inclusive_s = 2.5
    with tracer.span("power.query", capture_metrics=True,
                     name="Q3", variant="open"):
        clock.charge(1.0)                      # app-server work
        with tracer.span("dbif.call", layer="dbif", mode="param"):
            clock.charge(0.5)                  # shipping / latency
            with tracer.span("db.query", layer="engine") as dbspan:
                metrics.count("disk.time_s", 1.5)
                clock.charge(2.5)              # engine incl. disk
                if profile is not None:
                    dbspan.set(profile=profile)
            clock.charge(0.25)                 # more DBIF overhead
        with tracer.span("db.query", layer="engine"):  # direct (no DBIF)
            clock.charge(0.75)
        clock.charge(0.5)                      # app-server epilogue
        metrics.count("dbif.roundtrips", 3)
    return tracer


class TestLayerAlgebra:
    def test_breakdown_sums_exactly(self):
        analyzer = TraceAnalyzer(traced_query())
        b, = analyzer.query_breakdowns()
        assert b.name == "Q3" and b.variant == "open"
        assert b.total_s == pytest.approx(5.5)
        assert b.dbif_s == pytest.approx(0.75)     # 3.25 call - 2.5 engine
        assert b.engine_s == pytest.approx(3.25)   # 2.5 under dbif + 0.75
        assert b.app_s == pytest.approx(1.5)
        assert b.app_s + b.dbif_s + b.engine_s == pytest.approx(b.total_s)
        assert b.disk_s == pytest.approx(1.5)
        assert b.roundtrips == 3
        assert b.dbif_calls == 1

    def test_summary_totals(self):
        summary = TraceAnalyzer(traced_query()).summary()
        assert len(summary["queries"]) == 1
        totals = summary["totals"]
        assert totals["total_s"] == pytest.approx(
            totals["app_server_s"] + totals["dbif_s"] + totals["engine_s"])

    def test_top_operators_dedupes_shared_profile(self):
        tracer = traced_query(with_profile=True)
        # attach the same profile object to a second db.query span, as
        # repeated executions of a cached plan do
        profile = tracer.find("db.query")[0].attrs["profile"]
        with tracer.span("db.query") as extra:
            extra.set(profile=profile)
        ops = TraceAnalyzer(tracer).top_operators(5)
        op, = ops
        assert op.label == "SeqScan(lineitem)"
        assert op.loops == 1 and op.rows_out == 50
        assert op.exclusive_s == pytest.approx(2.5)

    def test_render_text_has_layers_and_operators(self):
        text = TraceAnalyzer(traced_query(with_profile=True)) \
            .render_text(top=5, title="unit")
        assert "App-server s" in text and "DBIF s" in text
        assert "SeqScan(lineitem)" in text
        assert "Total" in text


class TestExporters:
    def test_json_document_shape(self):
        document = to_json(traced_query(with_profile=True),
                           meta={"variant": "open"})
        assert document["format"] == "repro-trace-v1"
        assert document["meta"] == {"variant": "open"}
        root, = document["spans"]
        assert root["name"] == "power.query"
        assert root["counters"]["dbif.roundtrips"] == 3
        names = {root["name"]}
        stack = list(root["children"])
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node["children"])
        assert names == {"power.query", "dbif.call", "db.query"}
        # the profile serialised through its to_dict()
        dbif, = [c for c in root["children"] if c["name"] == "dbif.call"]
        prof = dbif["children"][0]["attrs"]["profile"]
        assert prof["operator"] == "SeqScan(lineitem)"
        assert prof["rows_out"] == 50

    def test_json_is_json_serialisable(self):
        import json

        text = json.dumps(to_json(traced_query(with_profile=True)))
        assert "SeqScan" in text

    def test_chrome_roundtrip_from_json(self):
        tracer = traced_query(with_profile=True)
        document = to_json(tracer)
        chrome = to_chrome(document, tid=7, thread_name="open")
        events = chrome["traceEvents"]
        meta_events = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert meta_events[0]["args"]["name"] == "open"
        assert len(spans) == sum(1 for _ in tracer.iter_spans())
        root = spans[0]
        assert root["name"] == "power.query"
        assert root["ts"] == 0.0
        assert root["dur"] == pytest.approx(5.5e6)  # seconds -> µs
        assert all(e["tid"] == 7 for e in spans)
        # profiles stay out of chrome args; scalars and counters go in
        assert all("profile" not in e["args"] for e in spans)
        assert root["args"]["counter:dbif.roundtrips"] == 3

    def test_chrome_accepts_tracer_directly(self):
        chrome = to_chrome(traced_query())
        assert any(e["name"] == "db.query" for e in chrome["traceEvents"])
