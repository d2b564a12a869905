"""The original eight-table TPC-D schema.

Key attributes are 4-byte integers, exactly the property the paper
contrasts with SAP's 16-byte string keys (Table 2's 8x index
inflation).  The index set mirrors the paper's "equivalent set of
indexes": primary keys plus the foreign-key/secondary indexes the
power test exercises (including the shipdate index SAP creates by
default, see Section 3.4.4).
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType

ORIGINAL_TABLES = [
    "region", "nation", "supplier", "part", "partsupp",
    "customer", "orders", "lineitem",
]

#: display names as printed in the paper's tables
PAPER_NAMES = {
    "region": "REGION", "nation": "NATION", "supplier": "SUPPLIER",
    "part": "PART", "partsupp": "PARTSUPP", "customer": "CUSTOMER",
    "orders": "ORDER", "lineitem": "LINEITEM",
}


def _c(name: str, sql_type: SqlType) -> Column:
    return Column(name, sql_type, nullable=False)


def table_schemas() -> list[TableSchema]:
    integer = SqlType.integer()
    decimal = SqlType.decimal()
    date = SqlType.date()
    return [
        TableSchema("region", [
            _c("r_regionkey", integer),
            _c("r_name", SqlType.char(25)),
            _c("r_comment", SqlType.varchar(152)),
        ], primary_key=["r_regionkey"]),
        TableSchema("nation", [
            _c("n_nationkey", integer),
            _c("n_name", SqlType.char(25)),
            _c("n_regionkey", integer),
            _c("n_comment", SqlType.varchar(152)),
        ], primary_key=["n_nationkey"]),
        TableSchema("supplier", [
            _c("s_suppkey", integer),
            _c("s_name", SqlType.char(25)),
            _c("s_address", SqlType.varchar(40)),
            _c("s_nationkey", integer),
            _c("s_phone", SqlType.char(15)),
            _c("s_acctbal", decimal),
            _c("s_comment", SqlType.varchar(101)),
        ], primary_key=["s_suppkey"]),
        TableSchema("part", [
            _c("p_partkey", integer),
            _c("p_name", SqlType.varchar(55)),
            _c("p_mfgr", SqlType.char(25)),
            _c("p_brand", SqlType.char(10)),
            _c("p_type", SqlType.varchar(25)),
            _c("p_size", integer),
            _c("p_container", SqlType.char(10)),
            _c("p_retailprice", decimal),
            _c("p_comment", SqlType.varchar(23)),
        ], primary_key=["p_partkey"]),
        TableSchema("partsupp", [
            _c("ps_partkey", integer),
            _c("ps_suppkey", integer),
            _c("ps_availqty", integer),
            _c("ps_supplycost", decimal),
            _c("ps_comment", SqlType.varchar(199)),
        ], primary_key=["ps_partkey", "ps_suppkey"]),
        TableSchema("customer", [
            _c("c_custkey", integer),
            _c("c_name", SqlType.varchar(25)),
            _c("c_address", SqlType.varchar(40)),
            _c("c_nationkey", integer),
            _c("c_phone", SqlType.char(15)),
            _c("c_acctbal", decimal),
            _c("c_mktsegment", SqlType.char(10)),
            _c("c_comment", SqlType.varchar(117)),
        ], primary_key=["c_custkey"]),
        TableSchema("orders", [
            _c("o_orderkey", integer),
            _c("o_custkey", integer),
            _c("o_orderstatus", SqlType.char(1)),
            _c("o_totalprice", decimal),
            _c("o_orderdate", date),
            _c("o_orderpriority", SqlType.char(15)),
            _c("o_clerk", SqlType.char(15)),
            _c("o_shippriority", integer),
            _c("o_comment", SqlType.varchar(79)),
        ], primary_key=["o_orderkey"]),
        TableSchema("lineitem", [
            _c("l_orderkey", integer),
            _c("l_partkey", integer),
            _c("l_suppkey", integer),
            _c("l_linenumber", integer),
            _c("l_quantity", decimal),
            _c("l_extendedprice", decimal),
            _c("l_discount", decimal),
            _c("l_tax", decimal),
            _c("l_returnflag", SqlType.char(1)),
            _c("l_linestatus", SqlType.char(1)),
            _c("l_shipdate", date),
            _c("l_commitdate", date),
            _c("l_receiptdate", date),
            _c("l_shipinstruct", SqlType.char(25)),
            _c("l_shipmode", SqlType.char(10)),
            _c("l_comment", SqlType.varchar(44)),
        ], primary_key=["l_orderkey", "l_linenumber"]),
    ]


#: secondary indexes beyond the automatic primary keys
SECONDARY_INDEXES = [
    ("idx_n_regionkey", "nation", ["n_regionkey"]),
    ("idx_s_nationkey", "supplier", ["s_nationkey"]),
    ("idx_ps_suppkey", "partsupp", ["ps_suppkey"]),
    ("idx_c_nationkey", "customer", ["c_nationkey"]),
    ("idx_o_custkey", "orders", ["o_custkey"]),
    ("idx_o_orderdate", "orders", ["o_orderdate"]),
    ("idx_l_partkey", "lineitem", ["l_partkey"]),
    ("idx_l_suppkey", "lineitem", ["l_suppkey"]),
    ("idx_l_shipdate", "lineitem", ["l_shipdate"]),
]


def create_original_schema(db: Database) -> None:
    """Create the eight TPC-D tables and their indexes in ``db``."""
    for schema in table_schemas():
        db.create_table(schema)
    for index_name, table, columns in SECONDARY_INDEXES:
        db.create_index(index_name, table, columns)
