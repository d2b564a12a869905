"""``NOT NULL`` is enforced: NULL in a ``nullable=False`` column is
refused by the row validator, before any mutation, on every path that
validates a row — SQL ``INSERT`` and ``UPDATE``, ``Table.insert_rows``,
``bulk_load`` and ``direct_path_load`` — on both storage backends.  A
valid row pays nothing for it: NULL never passes a cell's exact-type
test, and only a cell that fails that test reaches the check.  The
2.2 and 3.0 SAP systems are loaded under the check by every test that
loads one.
"""

import pytest

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.errors import ConstraintError
from repro.tpcd.dbgen import generate
from repro.tpcd.schema import table_schemas


@pytest.fixture(params=["heap", "lsm"])
def db(request):
    database = Database(storage=request.param)
    database.create_table(TableSchema("Region", [
        Column("r_regionkey", SqlType.integer(), nullable=False),
        Column("R_Name", SqlType.char(25), nullable=False),
        Column("r_comment", SqlType.varchar(152)),
    ], primary_key=["r_regionkey"]))
    database.create_index("i_name", "region", ["r_name"])
    database.execute("INSERT INTO region VALUES (0, 'AFRICA', NULL)")
    return database


def state(database):
    table = database.catalog.table("region")
    return (list(table.store.rows()),
            {name: list(index.scan_all())
             for name, index in table.indexes.items()},
            database.metrics.get("table.region.inserts"),
            database.metrics.get("table.region.updates"))


def test_sql_insert_of_null_is_refused(db):
    before = state(db)
    with pytest.raises(ConstraintError,
                       match="NULL in NOT NULL column region.r_name"):
        db.execute("INSERT INTO region VALUES (99, NULL, NULL)")
    with pytest.raises(ConstraintError, match="region.r_name"):
        db.execute("INSERT INTO region (r_regionkey) VALUES (98)")
    with pytest.raises(ConstraintError, match="region.r_name"):
        db.execute("INSERT INTO region VALUES (?, ?, ?)", (97, None, "c"))
    assert state(db) == before
    # a nullable column still takes NULL
    db.execute("INSERT INTO region VALUES (1, 'AMERICA', NULL)")
    assert db.catalog.table("region").row_count == 2


def test_a_not_null_key_column_reports_the_column(db):
    # the validator runs before the primary-key check
    with pytest.raises(ConstraintError,
                       match="NULL in NOT NULL column region.r_regionkey"):
        db.execute("INSERT INTO region VALUES (NULL, 'ASIA', NULL)")


def test_sql_update_to_null_is_refused(db):
    before = state(db)
    with pytest.raises(ConstraintError, match="region.r_name"):
        db.execute("UPDATE region SET r_name = NULL WHERE r_regionkey = 0")
    assert state(db) == before
    db.execute("UPDATE region SET r_comment = NULL WHERE r_regionkey = 0")


@pytest.mark.parametrize("bulk", [False, True], ids=["row", "bulk"])
def test_row_k_of_a_batch_is_refused_and_the_rows_before_it_stay(db, bulk):
    table = db.catalog.table("region")
    rows = [(1, "AMERICA", None), (2, "ASIA", "c"), (3, None, "c"),
            (4, "EUROPE", None)]
    with pytest.raises(ConstraintError, match="region.r_name"):
        table.insert_rows(rows, bulk)
    stored, indexes, inserts, _updates = state(db)
    assert [row for _rowid, row in stored] == \
        [(0, "AFRICA", None), (1, "AMERICA", None), (2, "ASIA", "c")]
    assert [key for key, _rowid in indexes["pk_region"]] == [(0,), (1,), (2,)]
    assert len(indexes["i_name"]) == 3 and inserts == 3
    with pytest.raises(ConstraintError, match="region.r_name"):
        db.bulk_load("region", [(5, None, None)])
    assert table.row_count == 3


def test_direct_path_load_ingests_nothing(db):
    before = state(db)
    flushes = db.metrics.get("lsm.flushes")
    with pytest.raises(ConstraintError, match="region.r_name"):
        db.direct_path_load("region", [(1, "AMERICA", None),
                                       (2, None, None)])
    assert state(db) == before
    assert db.metrics.get("lsm.flushes") == flushes
    assert db.metrics.get("db.direct_loaded.region") == 0


def test_a_replayed_insert_is_not_checked(db):
    # the logged row passed validation on the original run
    db.catalog.table("region").apply_insert(7, (7, None, None))
    assert db.catalog.table("region").store.fetch(7) == (7, None, None)


def test_generated_rows_hold_no_null_in_a_not_null_column():
    """The original schema declares 61 columns ``NOT NULL``; dbgen fills
    them all.  (That a valid row never reaches the check, nor
    ``SqlType.validate``, is ``test_validate_row.py``'s.)"""
    data = generate(0.0002)
    schemas = table_schemas()
    assert sum(not column.nullable
               for schema in schemas for column in schema.columns) == 61
    for schema in schemas:
        for row in data.table(schema.name):
            assert schema.validate_row(row) == row
    schema = TableSchema("T", [Column("C", SqlType.integer(),
                                      nullable=False)])
    assert schema.validate_row((1,)) == (1,)
    with pytest.raises(ConstraintError, match="NULL in NOT NULL column t.c"):
        schema.validate_row((None,))
