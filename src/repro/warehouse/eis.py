"""An EIS-style data warehouse (the paper's stated future work).

Section 5 ends with: *"in particular, we will study the performance
that can be achieved by using SAP's data warehouse product EIS."*
This module builds that study:

1. run the Open SQL extraction reports against the SAP database,
2. parse the ASCII feed back into the original eight-table schema in a
   dedicated warehouse database (bulk loaded, analyzed),
3. answer decision-support queries there at isolated-RDBMS speed,
4. propagate new business documents incrementally.

The pay-off analysis the paper sketches falls out directly: the
warehouse costs one extraction up front and wins
``(open_sql_query_cost - warehouse_query_cost)`` per query thereafter;
:func:`run_breakeven` is that study, for the CLI and the bench alike.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.r3.appserver import R3System
from repro.reports import open30
from repro.sapschema.mapping import KeyCodec
from repro.sim.clock import format_duration
from repro.tpcd.queries import build_queries, run_query
from repro.tpcd.schema import create_original_schema
from repro.warehouse.extract import extract_all


def _i(text: str) -> int:
    return int(text)


def _f(text: str) -> float:
    return float(text)


def _d(text: str) -> datetime.date:
    return datetime.date.fromisoformat(text)


def _s(text: str) -> str:
    return text


#: per-table field converters for the ASCII feed, plus padding for
#: original-schema columns the feed does not carry (comments lost in
#: the SAP mapping)
_LOADERS = {
    "region": ([_i, _s], 1),
    "nation": ([_i, _s, _i], 1),
    "supplier": ([_i, _s, _s, _i, _s, _f, _s], 0),
    "part": ([_i, _s, _s, _s, _s, _i, _s, _f, _s], 0),
    "partsupp": ([_i, _i, _i, _f], 1),
    "customer": ([_i, _s, _s, _i, _s, _f, _s, _s], 0),
    "orders": ([_i, _i, _s, _f, _d, _s, _s, _i, _s], 0),
    "lineitem": ([_i, _i, _i, _i, _f, _f, _f, _f, _s, _s, _d, _d, _d,
                  _s, _s, _s], 0),
}
_FEED_TABLE = {
    "REGION": "region", "NATION": "nation", "SUPPLIER": "supplier",
    "PART": "part", "PARTSUPP": "partsupp", "CUSTOMER": "customer",
    "ORDER": "orders", "LINEITEM": "lineitem",
}


def parse_feed_line(table: str, line: str) -> tuple:
    """One ASCII feed line -> a typed original-schema row."""
    converters, padding = _LOADERS[table]
    parts = line.split("|")
    if len(parts) != len(converters):
        raise ValueError(
            f"{table}: feed line has {len(parts)} fields, "
            f"expected {len(converters)}"
        )
    row = tuple(conv(part) for conv, part in zip(converters, parts))
    return row + ("",) * padding


@dataclass
class EisBuildReport:
    extraction_s: float
    load_s: float
    rows_loaded: int = 0

    @property
    def total_s(self) -> float:
        return self.extraction_s + self.load_s


@dataclass
class EisWarehouse:
    """The warehouse database plus its construction cost."""

    db: Database
    build: EisBuildReport
    #: per-query simulated times of warehouse runs (filled by callers)
    query_times: dict[str, float] = field(default_factory=dict)

    @classmethod
    def build_from_sap(cls, r3: R3System) -> "EisWarehouse":
        """Extract from SAP, parse, bulk load, analyze."""
        span = r3.measure()
        feed = extract_all(r3, keep_lines=True)
        extraction_s = span.stop()

        db = Database(params=r3.params, name="eis")
        create_original_schema(db)
        span = db.clock.span()
        rows_loaded = 0
        for feed_name, table in _FEED_TABLE.items():
            rows = [
                parse_feed_line(table, line)
                for line in feed[feed_name].lines
            ]
            # Parsing the feed is warehouse-side CPU work.
            db.ctx.charge_tuples(len(rows))
            db.bulk_load(table, rows)
            rows_loaded += len(rows)
        db.analyze()
        load_s = span.stop()
        return cls(db=db, build=EisBuildReport(
            extraction_s=extraction_s, load_s=load_s,
            rows_loaded=rows_loaded,
        ))

    def run_query(self, number: int, scale_factor: float):
        """One TPC-D query against the warehouse, timed."""
        spec = build_queries(scale_factor)[number]
        span = self.db.clock.span()
        result = run_query(self.db, spec)
        self.query_times[spec.name] = span.stop()
        return result

    def run_power_test(self, scale_factor: float) -> float:
        """All 17 queries; returns total simulated seconds."""
        total = 0.0
        for number in range(1, 18):
            self.run_query(number, scale_factor)
            total += self.query_times[f"Q{number}"]
        return total

    # -- incremental maintenance --------------------------------------------

    def propagate_new_orders(self, r3: R3System,
                             orderkeys: list[int]) -> float:
        """Incrementally push new SAP documents into the warehouse.

        Re-extracts just the named documents through Open SQL probes
        (header, positions, conditions, texts) and inserts them.
        Returns the combined simulated cost (SAP side + warehouse
        side), the paper's "incremental propagation" cost.
        """
        span = r3.measure()
        order_rows: list[tuple] = []
        lineitem_rows: list[tuple] = []
        for orderkey in orderkeys:
            vbeln = KeyCodec.vbeln(orderkey)
            header = r3.open_sql.select_single(
                "SELECT SINGLE kunnr gbstk netwr audat prior ernam sprio "
                "FROM vbak WHERE vbeln = :v",
                {"v": vbeln},
            )
            if header is None:
                continue
            kunnr, gbstk, netwr, audat, prior, ernam, sprio = header
            comment = r3.open_sql.select_single(
                "SELECT SINGLE tdline FROM stxl WHERE tdobject = 'VBBK' "
                "AND tdname = :n", {"n": vbeln},
            )
            order_rows.append((
                orderkey, KeyCodec.custkey(kunnr), gbstk, netwr, audat,
                prior, ernam, sprio, comment[0] if comment else "",
            ))
            lineitem_rows.extend(
                self._extract_document_items(r3, orderkey)
            )
        sap_s = span.stop()
        span = self.db.clock.span()
        for row in order_rows:
            self.db.catalog.table("orders").insert(row)
        for row in lineitem_rows:
            self.db.catalog.table("lineitem").insert(row)
        warehouse_s = span.stop()
        return sap_s + warehouse_s

    @staticmethod
    def _extract_document_items(r3: R3System,
                                orderkey: int) -> list[tuple]:
        from repro.reports.common import KonvLookup

        vbeln = KeyCodec.vbeln(orderkey)
        knumv = KeyCodec.knumv(orderkey)
        konv = KonvLookup(r3)
        items = r3.open_sql.select(
            "SELECT posnr matnr lifnr kwmeng netwr rkflg gbsta vsart "
            "sdabw FROM vbap WHERE vbeln = :v",
            {"v": vbeln},
        )
        out: list[tuple] = []
        for (posnr, matnr, lifnr, kwmeng, netwr, rkflg, gbsta, vsart,
             sdabw) in items.rows:
            dates = r3.open_sql.select_single(
                "SELECT SINGLE edatu mbdat lfdat FROM vbep "
                "WHERE vbeln = :v AND posnr = :p",
                {"v": vbeln, "p": posnr},
            )
            comment = r3.open_sql.select_single(
                "SELECT SINGLE tdline FROM stxl WHERE tdobject = 'VBBP' "
                "AND tdname = :n", {"n": vbeln + posnr},
            )
            conditions = konv.conditions(knumv)[posnr]
            out.append((
                orderkey, KeyCodec.partkey(matnr),
                KeyCodec.suppkey(lifnr), KeyCodec.linenumber(posnr),
                kwmeng, netwr, conditions["disc"], conditions["tax"],
                rkflg, gbsta, dates[0], dates[1], dates[2], sdabw, vsart,
                comment[0] if comment else "",
            ))
        return out


def breakeven_queries(build_cost_s: float, open_total_s: float,
                      warehouse_total_s: float) -> float:
    """How many power-test rounds until the warehouse pays off."""
    per_round_gain = open_total_s - warehouse_total_s
    if per_round_gain <= 0:
        return float("inf")
    return build_cost_s / per_round_gain


def open_sql_power_total(r3: R3System, scale_factor: float) -> float:
    """The 17 Open SQL 3.0 reports run one after another on ``r3``:
    their simulated seconds."""
    suite = open30.make_queries(scale_factor)
    span = r3.measure()
    for number in range(1, 18):
        suite[number](r3)
    return span.stop()


@dataclass
class EisBreakeven:
    """One power test on the warehouse against one via Open SQL."""

    warehouse: EisWarehouse
    warehouse_total_s: float
    open_total_s: float

    @property
    def rounds(self) -> float:
        return breakeven_queries(self.warehouse.build.total_s,
                                 self.open_total_s, self.warehouse_total_s)

    def render(self) -> str:
        build = self.warehouse.build
        return "\n".join([
            f"construction {format_duration(build.total_s)}: extraction "
            f"{format_duration(build.extraction_s)} + load "
            f"{format_duration(build.load_s)} ({build.rows_loaded} rows)",
            f"power test on EIS {format_duration(self.warehouse_total_s)}, "
            f"via Open SQL {format_duration(self.open_total_s)}",
            f"break-even after ~{self.rounds:.1f} power-test rounds "
            f"(~{self.rounds * 17:.0f} queries)",
        ])


def run_breakeven(r3: R3System, scale_factor: float) -> EisBreakeven:
    """Build the warehouse from ``r3`` and run the power test on both."""
    warehouse = EisWarehouse.build_from_sap(r3)
    warehouse_total_s = warehouse.run_power_test(scale_factor)
    return EisBreakeven(warehouse, warehouse_total_s,
                        open_sql_power_total(r3, scale_factor))
