"""TPC-D record → SAP record mapping.

Implements the vertical partitioning of the paper's Table 1: every
TPC-D row becomes one or more SAP rows across the 17 tables, integer
keys become padded strings, comments move to STXL, part names to MAKT,
retail prices behind A004→KONP, part sizes into AUSP, and per-lineitem
discount/tax into two KONV condition records hanging off the order's
pricing document (VBAK.KNUMV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.sapschema.tables import SAP_TABLE_INFO
from repro.tpcd.dbgen import TpcdData

LANGUAGE = "E"


class KeyCodec:
    """Integer TPC-D keys <-> padded SAP string keys (the 16-byte-string
    representation the paper blames for index inflation)."""

    @staticmethod
    def land1(nationkey: int) -> str:
        return f"{nationkey:03d}"

    @staticmethod
    def regio(regionkey: int) -> str:
        return f"R{regionkey:02d}"

    @staticmethod
    def matnr(partkey: int) -> str:
        return f"{partkey:018d}"

    @staticmethod
    def lifnr(suppkey: int) -> str:
        return f"{suppkey:010d}"

    @staticmethod
    def kunnr(custkey: int) -> str:
        return f"{custkey:010d}"

    @staticmethod
    def vbeln(orderkey: int) -> str:
        return f"{orderkey:010d}"

    @staticmethod
    def posnr(linenumber: int) -> str:
        return f"{linenumber:06d}"

    @staticmethod
    def knumv(orderkey: int) -> str:
        return f"V{orderkey:09d}"

    @staticmethod
    def infnr(partkey: int, suppkey: int) -> str:
        return f"{partkey:08d}{suppkey:08d}"

    @staticmethod
    def knumh(partkey: int) -> str:
        return f"H{partkey:09d}"

    # inverse mappings (used when reconstructing the warehouse)

    @staticmethod
    def orderkey(vbeln: str) -> int:
        return int(vbeln)

    @staticmethod
    def partkey(matnr: str) -> int:
        return int(matnr)

    @staticmethod
    def suppkey(lifnr: str) -> int:
        return int(lifnr)

    @staticmethod
    def custkey(kunnr: str) -> int:
        return int(kunnr)

    @staticmethod
    def nationkey(land1: str) -> int:
        return int(land1)

    @staticmethod
    def linenumber(posnr: str) -> int:
        return int(posnr)


def _fill(table: str, *semantic_values) -> tuple:
    """Semantic values + that table's filler defaults."""
    info = SAP_TABLE_INFO[table]
    if len(semantic_values) != len(info.semantic_fields):
        raise ValueError(
            f"{table}: {len(semantic_values)} values for "
            f"{len(info.semantic_fields)} semantic fields"
        )
    return tuple(semantic_values) + info.filler_defaults


@dataclass
class OrderDocument:
    """One business transaction's worth of SAP rows (order + items)."""

    orderkey: int
    vbak: tuple
    vbap: list[tuple] = field(default_factory=list)
    vbep: list[tuple] = field(default_factory=list)
    konv_key: tuple = ()
    konv_rows: list[tuple] = field(default_factory=list)
    stxl: list[tuple] = field(default_factory=list)
    custkey: int = 0
    partkeys: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# master data
# ---------------------------------------------------------------------------

def nation_rows(data: TpcdData) -> dict[str, list[tuple]]:
    t005, t005t = [], []
    for nationkey, name, regionkey, _comment in data.nation:
        t005.append(_fill(
            "t005", KeyCodec.land1(nationkey), KeyCodec.regio(regionkey)
        ))
        t005t.append(_fill(
            "t005t", LANGUAGE, KeyCodec.land1(nationkey), name
        ))
    return {"t005": t005, "t005t": t005t}


def region_rows(data: TpcdData) -> dict[str, list[tuple]]:
    t005u = [
        _fill("t005u", LANGUAGE, KeyCodec.regio(regionkey), name)
        for regionkey, name, _comment in data.region
    ]
    return {"t005u": t005u}


def part_rows(data: TpcdData) -> dict[str, list[tuple]]:
    import datetime

    mara, makt, a004, konp, ausp, stxl = [], [], [], [], [], []
    far_future = datetime.date(9999, 12, 31)
    epoch = datetime.date(1990, 1, 1)
    for (partkey, name, mfgr, brand, p_type, size, container, price,
         comment) in data.part:
        matnr = KeyCodec.matnr(partkey)
        mara.append(_fill("mara", matnr, p_type, brand, mfgr, container))
        makt.append(_fill("makt", matnr, LANGUAGE, name))
        knumh = KeyCodec.knumh(partkey)
        a004.append(_fill("a004", "V", "PR00", matnr, far_future, epoch,
                          knumh))
        konp.append(_fill("konp", knumh, "01", "PR00", price, "USD"))
        ausp.append(_fill("ausp", matnr, "SIZE", str(size), float(size)))
        stxl.append(_fill("stxl", "MARA", matnr, "0001", LANGUAGE, 0,
                          comment))
    return {"mara": mara, "makt": makt, "a004": a004, "konp": konp,
            "ausp": ausp, "stxl": stxl}


def supplier_rows(data: TpcdData) -> dict[str, list[tuple]]:
    lfa1, stxl = [], []
    for (suppkey, name, address, nationkey, phone, acctbal,
         comment) in data.supplier:
        lifnr = KeyCodec.lifnr(suppkey)
        lfa1.append(_fill(
            "lfa1", lifnr, name, address, KeyCodec.land1(nationkey),
            phone, acctbal,
        ))
        stxl.append(_fill(
            "stxl", "LFA1", lifnr, "0001", LANGUAGE, 0, comment
        ))
    return {"lfa1": lfa1, "stxl": stxl}


def partsupp_rows(data: TpcdData) -> dict[str, list[tuple]]:
    eina, eine = [], []
    for partkey, suppkey, availqty, supplycost, _comment in data.partsupp:
        infnr = KeyCodec.infnr(partkey, suppkey)
        eina.append(_fill(
            "eina", infnr, KeyCodec.matnr(partkey), KeyCodec.lifnr(suppkey)
        ))
        eine.append(_fill(
            "eine", infnr, "1000", "0", "0001", supplycost, availqty
        ))
    return {"eina": eina, "eine": eine}


def customer_rows(data: TpcdData) -> dict[str, list[tuple]]:
    kna1, stxl = [], []
    for (custkey, name, address, nationkey, phone, acctbal, segment,
         comment) in data.customer:
        kunnr = KeyCodec.kunnr(custkey)
        kna1.append(_fill(
            "kna1", kunnr, name, address, KeyCodec.land1(nationkey),
            phone, acctbal, segment,
        ))
        stxl.append(_fill(
            "stxl", "KNA1", kunnr, "0001", LANGUAGE, 0, comment
        ))
    return {"kna1": kna1, "stxl": stxl}


# ---------------------------------------------------------------------------
# transactional data
# ---------------------------------------------------------------------------

def order_documents(data: TpcdData) -> list[OrderDocument]:
    """Group orders + their lineitems into SAP business documents."""
    lineitems_by_order: dict[int, list[tuple]] = {}
    for row in data.lineitem:
        lineitems_by_order.setdefault(row[0], []).append(row)

    documents: list[OrderDocument] = []
    for (orderkey, custkey, status, totalprice, orderdate, priority,
         clerk, shippriority, comment) in data.orders:
        vbeln = KeyCodec.vbeln(orderkey)
        knumv = KeyCodec.knumv(orderkey)
        document = OrderDocument(
            orderkey=orderkey,
            custkey=custkey,
            vbak=_fill(
                "vbak", vbeln, KeyCodec.kunnr(custkey), orderdate,
                totalprice, status, priority, clerk, shippriority, knumv,
            ),
            konv_key=(knumv,),
        )
        document.stxl.append(_fill(
            "stxl", "VBBK", vbeln, "0001", LANGUAGE, 0, comment
        ))
        for line in lineitems_by_order.get(orderkey, []):
            (_ok, partkey, suppkey, linenumber, quantity, extendedprice,
             discount, tax, returnflag, linestatus, shipdate, commitdate,
             receiptdate, shipinstruct, shipmode, l_comment) = line
            posnr = KeyCodec.posnr(linenumber)
            document.partkeys.append(partkey)
            document.vbap.append(_fill(
                "vbap", vbeln, posnr, KeyCodec.matnr(partkey),
                KeyCodec.lifnr(suppkey), quantity, extendedprice,
                returnflag, linestatus, shipmode, shipinstruct,
            ))
            document.vbep.append(_fill(
                "vbep", vbeln, posnr, "0001", shipdate, commitdate,
                receiptdate,
            ))
            base = extendedprice
            document.konv_rows.append(_fill(
                "konv", knumv, posnr, "040", "01", "DISC",
                -discount * 1000.0, base, round(-base * discount, 2),
            ))
            taxed_base = base * (1 - discount)
            document.konv_rows.append(_fill(
                "konv", knumv, posnr, "050", "01", "TAX",
                tax * 1000.0, taxed_base, round(taxed_base * tax, 2),
            ))
            document.stxl.append(_fill(
                "stxl", "VBBP", (vbeln + posnr), "0001",
                LANGUAGE, 0, l_comment,
            ))
        documents.append(document)
    return documents


#: region and nation are "typed in interactively" (5 + 25 records): the
#: first batches of the stream, never bulk loaded
INTERACTIVE_TABLES = frozenset({"t005u", "t005", "t005t"})


def load_stream(data: TpcdData) -> Iterator[tuple[str, list[tuple],
                                                  tuple | None]]:
    """A data set as SAP logical rows in load order, one
    ``(table, rows, cluster_key)`` batch at a time: the master data
    table by table, then each order document's VBAK, VBAP, VBEP and
    STXL rows and its KONV cluster record (the only batch with a
    ``cluster_key``)."""
    for loader in (region_rows, nation_rows, supplier_rows, part_rows,
                   partsupp_rows, customer_rows):
        for table, rows in loader(data).items():
            yield table, rows, None
    for document in order_documents(data):
        yield "vbak", [document.vbak], None
        yield "vbap", document.vbap, None
        yield "vbep", document.vbep, None
        yield "stxl", document.stxl, None
        yield "konv", document.konv_rows, document.konv_key
