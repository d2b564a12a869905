"""Aggregate span trees into per-query layer breakdowns.

The :class:`TraceAnalyzer` turns a raw span tree into the paper-style
decomposition: for every ``power.query`` span it splits the inclusive
simulated time into

* **engine** — planning, plan execution and WAL commit inside the
  RDBMS (the span's ``engine`` and ``commit`` layer seconds),
* **DBIF** — round-trip latency, cursor cache, tuple shipping, backoff
  (its ``dbif`` layer seconds),
* **app-server** — ABAP interpreter, decode, internal tables, report
  logic: the remainder, everything above the database interface, and
* **disk** — the page-transfer seconds charged by the disk model (a
  sub-component of engine time, reported from span counter deltas).

The layer seconds are the tracer's layer stack read at the span's
entry and exit — the stack the monitor's STAT records read — so the
two decompositions are one.  ``app + dbif + engine == total`` holds by
construction; disk is informational ("of which disk").  On top of the
per-query rows the analyzer aggregates the EXPLAIN ANALYZE operator
profiles attached to ``db.query`` spans into a top-N hottest-operator
list.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class QueryBreakdown:
    """Layer decomposition of one power-test query."""

    name: str
    variant: str
    total_s: float
    app_s: float
    dbif_s: float
    engine_s: float
    disk_s: float
    roundtrips: float = 0
    dbif_calls: int = 0
    tuples_shipped: float = 0
    failed: bool = False

    def to_dict(self) -> dict:
        return {
            "query": self.name,
            "variant": self.variant,
            "total_s": self.total_s,
            "app_server_s": self.app_s,
            "dbif_s": self.dbif_s,
            "engine_s": self.engine_s,
            "disk_s": self.disk_s,
            "roundtrips": self.roundtrips,
            "dbif_calls": self.dbif_calls,
            "tuples_shipped": self.tuples_shipped,
            "failed": self.failed,
        }


@dataclass
class OperatorTotals:
    """One operator label aggregated across plans and executions."""

    label: str
    loops: int = 0
    rows_out: int = 0
    pages_read: float = 0.0
    inclusive_s: float = 0.0
    exclusive_s: float = 0.0
    plans: int = 0

    def to_dict(self) -> dict:
        return {
            "operator": self.label,
            "plans": self.plans,
            "loops": self.loops,
            "rows_out": self.rows_out,
            "pages_read": self.pages_read,
            "inclusive_s": self.inclusive_s,
            "exclusive_s": self.exclusive_s,
        }


class TraceAnalyzer:
    """Aggregations over one tracer's span tree."""

    def __init__(self, tracer) -> None:
        #: a Tracer or any object with ``roots``/``iter_spans``
        self.tracer = tracer

    # -- layer breakdowns --------------------------------------------------

    def query_breakdowns(self) -> list[QueryBreakdown]:
        """One row per ``power.query`` span, in execution order."""
        out = []
        for span in self.tracer.iter_spans():
            if span.name != "power.query":
                continue
            layers = span.layers
            total = span.elapsed_s
            engine = layers.get("engine", 0.0) + layers.get("commit", 0.0)
            dbif = layers.get("dbif", 0.0)
            out.append(QueryBreakdown(
                name=str(span.attrs.get("name", "?")),
                variant=str(span.attrs.get("variant", "?")),
                total_s=total,
                app_s=total - engine - dbif,
                dbif_s=dbif,
                engine_s=engine,
                disk_s=span.counters.get("disk.time_s", 0.0),
                roundtrips=span.counters.get("dbif.roundtrips", 0),
                dbif_calls=sum(1 for s in span.walk()
                               if s.name == "dbif.call"),
                tuples_shipped=span.counters.get("dbif.tuples_shipped", 0),
                failed=bool(span.attrs.get("failed", False)),
            ))
        return out

    # -- operator profiles -------------------------------------------------

    def top_operators(self, n: int = 10) -> list[OperatorTotals]:
        """Hottest plan operators by exclusive simulated time.

        Profiles accumulate across executions of a cached plan and the
        same profile object is attached to every execution span of that
        plan, so aggregation dedupes by object identity first.
        """
        seen: set[int] = set()
        totals: dict[str, OperatorTotals] = {}
        for span in self.tracer.iter_spans():
            if span.name != "db.query":
                continue
            profile = span.attrs.get("profile")
            if profile is None or id(profile) in seen:
                continue
            seen.add(id(profile))
            for node in profile.walk():
                entry = totals.setdefault(node.label,
                                          OperatorTotals(node.label))
                entry.plans += 1
                entry.loops += node.loops
                entry.rows_out += node.rows_out
                entry.pages_read += node.pages_read
                entry.inclusive_s += node.inclusive_s
                entry.exclusive_s += node.exclusive_s
        ranked = sorted(totals.values(), key=lambda t: -t.exclusive_s)
        return ranked[:n]

    # -- summaries ---------------------------------------------------------

    def summary(self, top: int = 10) -> dict:
        """JSON-ready dict: per-query breakdowns + hottest operators."""
        breakdowns = self.query_breakdowns()
        return {
            "queries": [b.to_dict() for b in breakdowns],
            "totals": self._totals(breakdowns),
            "top_operators": [o.to_dict() for o in self.top_operators(top)],
            "span_count": sum(1 for _ in self.tracer.iter_spans()),
        }

    @staticmethod
    def _totals(breakdowns: list[QueryBreakdown]) -> dict:
        return {
            "total_s": sum(b.total_s for b in breakdowns),
            "app_server_s": sum(b.app_s for b in breakdowns),
            "dbif_s": sum(b.dbif_s for b in breakdowns),
            "engine_s": sum(b.engine_s for b in breakdowns),
            "disk_s": sum(b.disk_s for b in breakdowns),
            "roundtrips": sum(b.roundtrips for b in breakdowns),
        }

    def render_text(self, top: int = 10, title: str | None = None) -> str:
        """The ST05-style text report (per-query layers + hot operators)."""
        from repro.core.results import render_table

        breakdowns = self.query_breakdowns()
        rows = []
        for b in breakdowns:
            rows.append([
                b.name + (" !" if b.failed else ""),
                _seconds(b.total_s), _seconds(b.app_s), _seconds(b.dbif_s),
                _seconds(b.engine_s), _seconds(b.disk_s),
                f"{int(b.roundtrips):,}",
            ])
        totals = self._totals(breakdowns)
        rows.append([
            "Total", _seconds(totals["total_s"]),
            _seconds(totals["app_server_s"]), _seconds(totals["dbif_s"]),
            _seconds(totals["engine_s"]), _seconds(totals["disk_s"]),
            f"{int(totals['roundtrips']):,}",
        ])
        table = render_table(
            ["Query", "Total s", "App-server s", "DBIF s", "Engine s",
             "of which Disk s", "Round trips"],
            rows, title=title,
        )
        lines = [table, "",
                 f"Top {top} operators by exclusive simulated time:"]
        op_rows = []
        for i, op in enumerate(self.top_operators(top), 1):
            op_rows.append([
                str(i), op.label, f"{op.loops:,}", f"{op.rows_out:,}",
                f"{op.pages_read:,.0f}", _seconds(op.exclusive_s),
                _seconds(op.inclusive_s),
            ])
        if op_rows:
            lines.append(render_table(
                ["#", "Operator", "Loops", "Rows out", "Pages",
                 "Excl s", "Incl s"], op_rows))
        else:
            lines.append("  (no operator profiles in this trace)")
        return "\n".join(lines)


def _seconds(value: float) -> str:
    return f"{value:,.3f}"
