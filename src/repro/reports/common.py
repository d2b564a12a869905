"""Shared pieces of the SAP-side reports."""

from __future__ import annotations

import datetime

from repro.r3.appserver import R3System
from repro.sapschema.mapping import KeyCodec

#: TPC-D parameter dates used by several reports
Q1_MAX_SHIPDATE = datetime.date(1998, 12, 1) - datetime.timedelta(days=90)
Q3_DATE = datetime.date(1995, 3, 15)
Q4_LO = datetime.date(1993, 7, 1)
Q4_HI = datetime.date(1993, 10, 1)
Q5_LO = datetime.date(1994, 1, 1)
Q5_HI = datetime.date(1995, 1, 1)
Q6_LO = datetime.date(1994, 1, 1)
Q6_HI = datetime.date(1995, 1, 1)
Q7_LO = datetime.date(1995, 1, 1)
Q7_HI = datetime.date(1996, 12, 31)
Q10_LO = datetime.date(1993, 10, 1)
Q10_HI = datetime.date(1994, 1, 1)
Q12_LO = datetime.date(1994, 1, 1)
Q12_HI = datetime.date(1995, 1, 1)
Q13_LO = datetime.date(1995, 1, 1)
Q13_HI = datetime.date(1995, 4, 1)
Q14_LO = datetime.date(1995, 9, 1)
Q14_HI = datetime.date(1995, 10, 1)
Q15_LO = datetime.date(1996, 1, 1)
Q15_HI = datetime.date(1996, 4, 1)


def discount_of(kbetr: float) -> float:
    """KONV 'DISC' rate (negative per-mille) -> l_discount."""
    return -kbetr / 1000.0


def tax_of(kbetr: float) -> float:
    """KONV 'TAX' rate (per-mille) -> l_tax."""
    return kbetr / 1000.0


class KonvLookup:
    """Per-order pricing-condition fetch with a one-document memo.

    Reports that loop over lineitems grouped by order fetch each
    order's KONV conditions once; the lookup goes through Open SQL, so
    in 2.2 it decodes the cluster and in 3.0 it probes the transparent
    table — exactly the paper's two regimes.
    """

    def __init__(self, r3: R3System) -> None:
        self._r3 = r3
        self._knumv: str | None = None
        self._by_position: dict[str, dict[str, float]] = {}

    def conditions(self, knumv: str) -> dict[str, dict[str, float]]:
        """posnr -> {'disc': ..., 'tax': ...} for one pricing document."""
        if knumv != self._knumv:
            tracer = self._r3.tracer
            if tracer.enabled:
                with tracer.span("report.konv_fetch", knumv=knumv):
                    result = self._fetch(knumv)
            else:
                result = self._fetch(knumv)
            table: dict[str, dict[str, float]] = {}
            for kposn, kschl, kbetr in result.rows:
                entry = table.setdefault(kposn, {})
                if kschl == "DISC":
                    entry["disc"] = discount_of(kbetr)
                elif kschl == "TAX":
                    entry["tax"] = tax_of(kbetr)
            self._knumv = knumv
            self._by_position = table
        return self._by_position

    def _fetch(self, knumv: str):
        return self._r3.open_sql.select(
            "SELECT kposn kschl kbetr FROM konv WHERE knumv = :knumv",
            {"knumv": knumv},
        )

    def disc(self, knumv: str, posnr: str) -> float:
        return self.conditions(knumv)[posnr]["disc"]

    def tax(self, knumv: str, posnr: str) -> float:
        return self.conditions(knumv)[posnr]["tax"]


def nation_names(r3: R3System) -> dict[str, str]:
    """land1 -> nation name (via the country join view)."""
    result = r3.open_sql.select("SELECT land1 landx FROM wt005tx")
    return {land1: landx for land1, landx in result.rows}


def nation_regions(r3: R3System) -> dict[str, str]:
    """land1 -> regio."""
    result = r3.open_sql.select("SELECT land1 regio FROM t005")
    return {land1: regio for land1, regio in result.rows}


def region_by_name(r3: R3System, name: str) -> str | None:
    """region name -> regio key."""
    result = r3.open_sql.select(
        "SELECT regio FROM t005u WHERE bezei = :name", {"name": name}
    )
    row = result.first()
    return row[0] if row else None


def nations_in_region(r3: R3System, region_name: str) -> dict[str, str]:
    """land1 -> nation name, restricted to one region."""
    regio = region_by_name(r3, region_name)
    names = nation_names(r3)
    regions = nation_regions(r3)
    return {
        land1: name for land1, name in names.items()
        if regions.get(land1) == regio
    }


def supplier_comment_map(r3: R3System, lifnrs: list[str]) -> dict[str, str]:
    """lifnr -> s_comment via STXL single-record probes."""
    out: dict[str, str] = {}
    with r3.tracer.span("report.comment_probes", kind="supplier",
                        probes=len(lifnrs)):
        for lifnr in lifnrs:
            row = r3.open_sql.select_single(
                "SELECT SINGLE tdline FROM stxl WHERE tdobject = 'LFA1' "
                "AND tdname = :name",
                {"name": lifnr},
            )
            out[lifnr] = row[0] if row else ""
    return out


def customer_comment_map(r3: R3System, kunnrs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    with r3.tracer.span("report.comment_probes", kind="customer",
                        probes=len(kunnrs)):
        for kunnr in kunnrs:
            row = r3.open_sql.select_single(
                "SELECT SINGLE tdline FROM stxl WHERE tdobject = 'KNA1' "
                "AND tdname = :name",
                {"name": kunnr},
            )
            out[kunnr] = row[0] if row else ""
    return out


def as_int_key(value: str) -> int:
    return int(value)


def round2(value: float) -> float:
    return round(value, 2)


__all__ = [
    "KeyCodec", "KonvLookup", "discount_of", "tax_of", "nation_names",
    "nation_regions", "region_by_name", "nations_in_region",
    "supplier_comment_map", "customer_comment_map", "as_int_key", "round2",
]
