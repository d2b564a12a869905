"""Definitions of the 17 SAP tables used for the TPC-D data (Table 1).

Each table lists its *semantic* fields (the ones carrying TPC-D
attributes) first, followed by default business fields ("fillers") of
the kind every real SAP table carries.  The fillers are what inflates
the SAP database ~10x over the original TPC-D database; their widths
are modelled on the real tables' field inventories.

Kinds: A004 is a pool table, KONV is a cluster table (both by default,
as in the paper); the remaining 15 are transparent.
"""

from __future__ import annotations

import datetime
from functools import cached_property

from repro.engine.types import SqlType, TypeKind
from repro.r3.appserver import R3System
from repro.r3.ddic import DDicField, DDicTable, TableKind

# Shorthand type constructors.
C = SqlType.char
V = SqlType.varchar
D = SqlType.decimal
I = SqlType.integer
DT = SqlType.date

#: container names
POOL_CONTAINER = "kapol"
CLUSTER_CONTAINER = "koclu"

#: default value per type kind for filler fields
_DEFAULTS = {
    TypeKind.CHAR: "",
    TypeKind.VARCHAR: "",
    TypeKind.INTEGER: 0,
    TypeKind.DECIMAL: 0.0,
    TypeKind.DATE: datetime.date(1990, 1, 1),
}


def _fields(spec: list[tuple]) -> list[DDicField]:
    """spec rows: (name, type) or (name, type, 'key')."""
    out = []
    for entry in spec:
        name, sql_type = entry[0], entry[1]
        key = len(entry) > 2 and entry[2] == "key"
        out.append(DDicField(name, sql_type, key=key))
    return out


class SapTableInfo:
    """One logical table: definition + semantic/filler split."""

    def __init__(self, name: str, kind: TableKind, description: str,
                 original: str, semantic: list[tuple],
                 fillers: list[tuple]) -> None:
        self.name = name
        self.kind = kind
        self.description = description
        self.original = original  # TPC-D table(s), for the Table 1 printout
        self.semantic_fields = _fields(semantic)
        self.filler_fields = _fields(fillers)

    @property
    def fields(self) -> list[DDicField]:
        return self.semantic_fields + self.filler_fields

    @cached_property
    def filler_defaults(self) -> tuple:
        return tuple(
            _DEFAULTS[f.sql_type.kind] for f in self.filler_fields
        )

    def ddic_table(self) -> DDicTable:
        container = None
        cluster_key_length = 0
        if self.kind is TableKind.POOL:
            container = POOL_CONTAINER
        elif self.kind is TableKind.CLUSTER:
            container = CLUSTER_CONTAINER
            cluster_key_length = 1  # KNUMV
        return DDicTable(
            name=self.name, kind=self.kind, fields=self.fields,
            container=container, cluster_key_length=cluster_key_length,
            description=self.description,
        )


SAP_TABLE_INFO: dict[str, SapTableInfo] = {}


def _register(info: SapTableInfo) -> None:
    SAP_TABLE_INFO[info.name] = info


_register(SapTableInfo(
    "t005", TableKind.TRANSPARENT, "Country: general info", "NATION",
    semantic=[
        ("land1", C(3), "key"),   # nation key
        ("regio", C(3)),          # region key
    ],
    fillers=[
        ("landk", C(3)), ("lnplz", C(2)), ("waers", C(5)), ("spras", C(1)),
        ("kalsm", C(6)), ("xegld", C(1)), ("intca", C(2)), ("nmfmt", C(2)),
    ],
))

_register(SapTableInfo(
    "t005t", TableKind.TRANSPARENT, "Country: names", "NATION",
    semantic=[
        ("spras", C(1), "key"),
        ("land1", C(3), "key"),
        ("landx", C(25)),         # nation name
    ],
    fillers=[
        ("natio", C(25)), ("land50", C(50)), ("prq_spregt", C(1)),
    ],
))

_register(SapTableInfo(
    "t005u", TableKind.TRANSPARENT, "Regions", "REGION",
    semantic=[
        ("spras", C(1), "key"),
        ("regio", C(3), "key"),
        ("bezei", C(25)),         # region name
    ],
    fillers=[
        ("fprcd", C(3)),
    ],
))

_register(SapTableInfo(
    "mara", TableKind.TRANSPARENT, "Parts: general info", "PART",
    semantic=[
        ("matnr", C(18), "key"),  # part key
        ("mtart", C(25)),         # p_type
        ("extwg", C(18)),         # p_brand
        ("mfrpn", C(25)),         # p_mfgr
        ("magrv", C(10)),         # p_container
    ],
    fillers=[
        ("meins", C(3)), ("matkl", C(9)), ("bismt", C(18)), ("mbrsh", C(1)),
        ("brgew", D()), ("ntgew", D()), ("gewei", C(3)), ("volum", D()),
        ("voleh", C(3)), ("spart", C(2)), ("wrkst", C(48)),
        ("normt", C(18)), ("kzkfg", C(1)), ("vpsta", C(15)),
        ("prdha", C(18)), ("mstae", C(2)), ("mstav", C(2)), ("taklv", C(1)),
        ("erdat", DT()), ("ernam", C(12)), ("laeda", DT()),
        ("aenam", C(12)), ("pstat", C(15)), ("lvorm", C(1)),
    ],
))

_register(SapTableInfo(
    "makt", TableKind.TRANSPARENT, "Parts: description", "PART",
    semantic=[
        ("matnr", C(18), "key"),
        ("spras", C(1), "key"),
        ("maktx", C(55)),          # p_name
    ],
    fillers=[
        ("maktg", C(55)),          # uppercase copy SAP keeps for matchcodes
    ],
))

_register(SapTableInfo(
    "a004", TableKind.POOL, "Parts: terms", "PART",
    semantic=[
        ("kappl", C(2), "key"),
        ("kschl", C(4), "key"),
        ("matnr", C(18), "key"),
        ("datbi", DT(), "key"),    # valid-to
        ("datab", DT()),           # valid-from
        ("knumh", C(10)),          # link to KONP
    ],
    fillers=[
        ("kfrst", C(1)),
    ],
))

_register(SapTableInfo(
    "konp", TableKind.TRANSPARENT, "Terms: positions", "PART",
    semantic=[
        ("knumh", C(10), "key"),
        ("kopos", C(2), "key"),
        ("kschl", C(4)),
        ("kbetr", D()),            # p_retailprice
        ("konwa", C(5)),
    ],
    fillers=[
        ("kpein", D()), ("kmein", C(3)), ("krech", C(1)), ("stfkz", C(1)),
        ("kznep", C(1)), ("loevm_ko", C(1)),
    ],
))

_register(SapTableInfo(
    "lfa1", TableKind.TRANSPARENT, "Supplier: general info", "SUPPLIER",
    semantic=[
        ("lifnr", C(10), "key"),
        ("name1", C(35)),          # s_name
        ("stras", C(35)),          # s_address
        ("land1", C(3)),           # s_nationkey
        ("telf1", C(16)),          # s_phone
        ("saldo", D()),            # s_acctbal
    ],
    fillers=[
        ("ort01", C(35)), ("pstlz", C(10)), ("regio", C(3)),
        ("sortl", C(10)), ("adrnr", C(10)), ("mcod1", C(25)),
        ("mcod2", C(25)), ("mcod3", C(25)), ("anred", C(15)),
        ("bahns", C(25)), ("spras", C(1)), ("stceg", C(20)),
        ("ktokk", C(4)), ("erdat", DT()), ("ernam", C(12)),
        ("sperr", C(1)), ("loevm", C(1)),
    ],
))

_register(SapTableInfo(
    "eina", TableKind.TRANSPARENT, "Part-Supplier: general info",
    "PARTSUPP",
    semantic=[
        ("infnr", C(16), "key"),   # purchasing info record
        ("matnr", C(18)),
        ("lifnr", C(10)),
    ],
    fillers=[
        ("meins", C(3)), ("umrez", D()), ("umren", D()), ("idnlf", C(35)),
        ("verkf", C(30)), ("telf1", C(16)), ("urzdt", DT()),
        ("urzla", C(3)), ("lmein", C(3)), ("regio", C(3)),
        ("loekz", C(1)), ("erdat", DT()), ("ernam", C(12)),
    ],
))

_register(SapTableInfo(
    "eine", TableKind.TRANSPARENT, "Part-Supplier: terms", "PARTSUPP",
    semantic=[
        ("infnr", C(16), "key"),
        ("ekorg", C(4), "key"),
        ("esokz", C(1), "key"),
        ("werks", C(4), "key"),
        ("netpr", D()),            # ps_supplycost
        ("avlqt", I()),            # ps_availqty
    ],
    fillers=[
        ("waers", C(5)), ("peinh", D()), ("bprme", C(3)), ("mwskz", C(2)),
        ("aplfz", D()), ("norbm", D()), ("minbm", D()), ("bstae", C(4)),
        ("angdt", DT()), ("prdat", DT()), ("loekz", C(1)),
    ],
))

_register(SapTableInfo(
    "ausp", TableKind.TRANSPARENT, "Characteristic values",
    "PART, SUPP, PARTS",
    semantic=[
        ("objek", C(50), "key"),   # object key (e.g. MATNR)
        ("atinn", C(10), "key"),   # characteristic ('SIZE')
        ("atwrt", C(30)),          # character value
        ("atflv", D()),            # numeric value (p_size)
    ],
    fillers=[
        ("klart", C(3)), ("adzhl", C(4)), ("mafid", C(1)), ("atcod", I()),
    ],
))

_register(SapTableInfo(
    "kna1", TableKind.TRANSPARENT, "Customer: general info", "CUSTOMER",
    semantic=[
        ("kunnr", C(10), "key"),
        ("name1", C(35)),          # c_name
        ("stras", C(35)),          # c_address
        ("land1", C(3)),           # c_nationkey
        ("telf1", C(16)),          # c_phone
        ("saldo", D()),            # c_acctbal
        ("brsch", C(10)),          # c_mktsegment
    ],
    fillers=[
        ("ort01", C(35)), ("pstlz", C(10)), ("regio", C(3)),
        ("sortl", C(10)), ("adrnr", C(10)), ("mcod1", C(25)),
        ("mcod2", C(25)), ("mcod3", C(25)), ("anred", C(15)),
        ("spras", C(1)), ("stceg", C(20)), ("ktokd", C(4)),
        ("erdat", DT()), ("ernam", C(12)), ("aufsd", C(2)),
        ("lifsd", C(2)), ("faksd", C(2)), ("loevm", C(1)),
    ],
))

_register(SapTableInfo(
    "vbak", TableKind.TRANSPARENT, "Order: general info", "ORDER",
    semantic=[
        ("vbeln", C(10), "key"),
        ("kunnr", C(10)),          # o_custkey
        ("audat", DT()),           # o_orderdate
        ("netwr", D()),            # o_totalprice
        ("gbstk", C(1)),           # o_orderstatus
        ("prior", C(15)),          # o_orderpriority
        ("ernam", C(15)),          # o_clerk
        ("sprio", I()),            # o_shippriority
        ("knumv", C(10)),          # pricing document (KONV key)
    ],
    fillers=[
        ("erdat", DT()), ("erzet", C(6)), ("angdt", DT()), ("bnddt", DT()),
        ("auart", C(4)), ("submi", C(10)), ("lifsk", C(2)), ("faksk", C(2)),
        ("waerk", C(5)), ("vkorg", C(4)), ("vtweg", C(2)), ("spart", C(2)),
        ("vkgrp", C(3)), ("vkbur", C(4)), ("gsber", C(4)), ("guebg", DT()),
        ("gueen", DT()), ("ktext", C(40)), ("bstnk", C(20)),
        ("bsark", C(4)), ("ihrez", C(12)), ("telf1", C(16)),
        ("kzwi1", D()), ("kzwi2", D()), ("kzwi3", D()), ("kzwi4", D()),
        ("kzwi5", D()), ("kzwi6", D()), ("vsbed", C(2)), ("fkara", C(4)),
        ("awahr", C(3)), ("kokrs", C(4)),
    ],
))

_register(SapTableInfo(
    "vbap", TableKind.TRANSPARENT, "Lineitem: position", "LINEITEM",
    semantic=[
        ("vbeln", C(10), "key"),
        ("posnr", C(6), "key"),
        ("matnr", C(18)),          # l_partkey
        ("lifnr", C(10)),          # l_suppkey
        ("kwmeng", D()),           # l_quantity
        ("netwr", D()),            # l_extendedprice
        ("rkflg", C(1)),           # l_returnflag
        ("gbsta", C(1)),           # l_linestatus
        ("vsart", C(10)),          # l_shipmode
        ("sdabw", C(25)),          # l_shipinstruct
    ],
    fillers=[
        ("werks", C(4)), ("lgort", C(4)), ("matkl", C(9)), ("arktx", C(40)),
        ("pstyv", C(4)), ("spart", C(2)), ("gsber", C(4)), ("netpr", D()),
        ("waerk", C(5)), ("kzwi1", D()), ("kzwi2", D()), ("kzwi3", D()),
        ("kzwi4", D()), ("kzwi5", D()), ("kzwi6", D()), ("ntgew", D()),
        ("brgew", D()), ("gewei", C(3)), ("vstel", C(4)), ("route", C(6)),
        ("zmeng", D()), ("meins", C(3)), ("stcur", D()), ("uebto", D()),
        ("abgru", C(2)), ("kondm", C(2)), ("ktgrm", C(2)), ("mvgr1", C(3)),
        ("mvgr2", C(3)), ("mvgr3", C(3)), ("mvgr4", C(3)), ("mvgr5", C(3)),
        ("prodh", C(18)), ("vgbel", C(10)), ("vgpos", C(6)),
        ("erdat", DT()), ("ernam", C(12)),
    ],
))

_register(SapTableInfo(
    "vbep", TableKind.TRANSPARENT, "Lineitem: terms", "LINEITEM",
    semantic=[
        ("vbeln", C(10), "key"),
        ("posnr", C(6), "key"),
        ("etenr", C(4), "key"),
        ("edatu", DT()),           # l_shipdate
        ("mbdat", DT()),           # l_commitdate
        ("lfdat", DT()),           # l_receiptdate
    ],
    fillers=[
        ("wmeng", D()), ("bmeng", D()), ("meins", C(3)), ("ettyp", C(1)),
        ("lifsp", C(2)), ("grkor", C(3)), ("abart", C(1)), ("banfn", C(10)),
        ("plart", C(1)), ("rsnum", C(10)), ("wadat", DT()), ("tddat", DT()),
        ("lddat", DT()), ("idnnr", C(16)), ("ezeit", C(6)),
    ],
))

_register(SapTableInfo(
    "konv", TableKind.CLUSTER, "Pricing terms", "LINEITEM",
    semantic=[
        ("knumv", C(10), "key"),   # cluster key (per order document)
        ("kposn", C(6), "key"),    # position (lineitem)
        ("stunr", C(3), "key"),    # step number
        ("zaehk", C(2), "key"),    # counter
        ("kschl", C(4)),           # condition type: 'DISC' / 'TAX'
        ("kbetr", D()),            # rate in per-mille (discount < 0)
        ("kawrt", D()),            # condition base value
        ("kwert", D()),            # condition value
    ],
    fillers=[
        ("waers", C(5)), ("kkurs", D()), ("kpein", D()), ("kmein", C(3)),
        ("krech", C(1)), ("kinak", C(1)), ("koaid", C(1)), ("kntyp", C(1)),
        ("kstat", C(1)), ("sakn1", C(10)), ("mwsk1", C(2)),
    ],
))

_register(SapTableInfo(
    "stxl", TableKind.TRANSPARENT, "Text of comments", "all",
    semantic=[
        ("tdobject", C(10), "key"),  # object class (VBBK, LFA1, ...)
        ("tdname", C(32), "key"),    # object key
        ("tdid", C(4), "key"),
        ("tdspras", C(1), "key"),
        ("srtf2", I(), "key"),       # line counter
        ("tdline", V(132)),          # the text
    ],
    fillers=[
        ("clustr", I()), ("tdformat", C(2)),
    ],
))


#: secondary indexes SAP's installation defines for these tables
SAP_SECONDARY_INDEXES = [
    ("idx_vbak_kunnr", "vbak", ["kunnr"]),
    ("idx_vbak_audat", "vbak", ["audat"]),
    ("idx_vbak_knumv", "vbak", ["knumv"]),
    ("idx_vbap_matnr", "vbap", ["matnr"]),
    ("idx_vbap_lifnr", "vbap", ["lifnr"]),
    # the default shipdate index the paper deletes for the 3.0 run:
    ("idx_vbep_edatu", "vbep", ["edatu"]),
    ("idx_kna1_land1", "kna1", ["land1"]),
    ("idx_lfa1_land1", "lfa1", ["land1"]),
    ("idx_eina_matnr", "eina", ["matnr"]),
    ("idx_eina_lifnr", "eina", ["lifnr"]),
]


def activate_sap_schema(r3: R3System, engine_ddl: bool = True) -> None:
    """Create containers, activate the 17 tables, build indexes.

    ``engine_ddl=False`` re-registers the app-tier dictionary against a
    crash-recovered engine without issuing any new engine DDL: the
    recovered catalog is the authority there (it replayed both the
    CREATEs *and* any later DROPs, which a blind re-activation would
    wrongly re-create).
    """
    from repro.engine.types import SqlType as _S

    r3.define_pool(POOL_CONTAINER)
    r3.define_cluster(
        CLUSTER_CONTAINER, [DDicField("knumv", _S.char(10), key=True)]
    )
    for info in SAP_TABLE_INFO.values():
        r3.activate_table(info.ddic_table())
    if not engine_ddl:
        return
    for index_name, table, columns in SAP_SECONDARY_INDEXES:
        # Idempotent against a crash-recovered catalog that already
        # replayed the CREATE INDEX from the log or checkpoint image.
        if not r3.db.catalog.has_index(index_name):
            r3.db.create_index(index_name, table, columns)
