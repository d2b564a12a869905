"""Trace exporters: a stable JSON form and Chrome ``chrome://tracing``.

``to_json`` serialises a tracer's span tree into a plain-dict document
(format tag ``repro-trace-v1``); ``to_chrome`` converts either a tracer
or that JSON document into the Chrome Trace Event format, so a trace
dumped to disk can be loaded into ``chrome://tracing`` / Perfetto.  All
timestamps are *simulated* seconds, exported as microseconds in the
Chrome form (the convention that format expects).
"""

from __future__ import annotations

_SCALAR = (str, int, float, bool, type(None))


def _attr_value(value: object) -> object:
    if isinstance(value, _SCALAR):
        return value
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return str(value)


def span_to_dict(span) -> dict:
    """One span (and its subtree) as plain JSON-ready dicts."""
    end_s = span.end_s if span.end_s is not None else span.start_s
    out = {
        "name": span.name,
        "start_s": span.start_s,
        "end_s": end_s,
        "attrs": {k: _attr_value(v) for k, v in span.attrs.items()},
    }
    if span.counters:
        out["counters"] = dict(span.counters)
    out["children"] = [span_to_dict(child) for child in span.children]
    return out


def to_json(tracer, meta: dict | None = None) -> dict:
    """The whole trace as a JSON-ready document."""
    return {
        "format": "repro-trace-v1",
        "clock": "simulated_seconds",
        "meta": dict(meta or {}),
        "dropped_spans": 0,
        "spans": [span_to_dict(root) for root in tracer.roots],
    }


#: metric-delta counters promoted to their own chrome counter track
_COUNTER_TRACKS = (
    "dbif.roundtrips",
    "dbif.tuples_shipped",
    "buffer.hits",
    "buffer.misses",
    "buffer_mgr.hits",
    "buffer_mgr.lookups",
    "dbif.cursor_cache_hits",
    "dbif.cursor_cache_misses",
)

#: derived hit-rate tracks: name -> (numerator, denominator-extra)
_RATE_TRACKS = {
    "buffer pool hit rate": ("buffer.hits", "buffer.misses"),
    "cursor-cache hit rate": ("dbif.cursor_cache_hits",
                              "dbif.cursor_cache_misses"),
}


#: the one process every event belongs to
PID = 1


def _counter_events(trace: dict) -> list[dict]:
    """Counter ('C') events from the spans' captured metric deltas.

    Spans that captured metrics (e.g. ``power.query``) carry the
    per-span counter deltas; accumulating them in span-end order gives
    running totals, so ``chrome://tracing`` renders round trips and
    buffer traffic as counter tracks under the span rows — plus derived
    hit-rate tracks (pool, cursor cache, and the SAP buffer quality).
    """
    samples: list[tuple[float, dict]] = []

    def collect(node: dict) -> None:
        counters = node.get("counters")
        if counters:
            samples.append((node["end_s"], counters))
        for child in node.get("children", ()):
            collect(child)

    for root in trace.get("spans", ()):
        collect(root)
    samples.sort(key=lambda sample: sample[0])
    events: list[dict] = []
    totals: dict[str, float] = {}
    for end_s, counters in samples:
        for metric in _COUNTER_TRACKS:
            if metric in counters:
                totals[metric] = totals.get(metric, 0.0) + counters[metric]
        ts = end_s * 1e6
        for metric in _COUNTER_TRACKS:
            if metric in totals:
                events.append({"ph": "C", "name": metric,
                               "cat": metric.split(".", 1)[0],
                               "ts": ts, "pid": PID,
                               "args": {"count": totals[metric]}})
        for track, (hit_metric, miss_metric) in _RATE_TRACKS.items():
            hits = totals.get(hit_metric, 0.0)
            misses = totals.get(miss_metric, 0.0)
            if hits + misses > 0:
                events.append({"ph": "C", "name": track, "cat": "rate",
                               "ts": ts, "pid": PID,
                               "args": {"rate": hits / (hits + misses)}})
        lookups = totals.get("buffer_mgr.lookups", 0.0)
        if lookups > 0:
            events.append({
                "ph": "C", "name": "buffer quality", "cat": "rate",
                "ts": ts, "pid": PID,
                "args": {"rate": totals.get("buffer_mgr.hits", 0.0)
                         / lookups}})
    return events


def to_chrome(trace, tid: int = 1,
              thread_name: str | None = None) -> dict:
    """Chrome Trace Event document from a tracer or a ``to_json`` dict.

    Every span becomes a complete ('X') event; simulated seconds map to
    the format's microsecond timestamps.  Operator profiles are left
    out of ``args`` (they have their own JSON form and would bloat the
    viewer's tooltips).  Spans' captured metric deltas additionally
    become counter ('C') tracks — running round-trip totals and
    buffer/cursor hit rates alongside the span rows.
    """
    if not isinstance(trace, dict):
        trace = to_json(trace)
    events: list[dict] = []
    if thread_name:
        events.append({"ph": "M", "name": "thread_name", "pid": PID,
                       "tid": tid, "args": {"name": thread_name}})

    def emit(node: dict) -> None:
        args = {
            k: v for k, v in node.get("attrs", {}).items()
            if isinstance(v, _SCALAR) and v is not None
        }
        for name, value in node.get("counters", {}).items():
            args[f"counter:{name}"] = value
        events.append({
            "name": node["name"],
            "cat": node["name"].split(".", 1)[0],
            "ph": "X",
            "ts": node["start_s"] * 1e6,
            "dur": (node["end_s"] - node["start_s"]) * 1e6,
            "pid": PID,
            "tid": tid,
            "args": args,
        })
        for child in node.get("children", ()):
            emit(child)

    for root in trace.get("spans", ()):
        emit(root)
    events.extend(_counter_events(trace))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(trace.get("meta", {})),
    }
