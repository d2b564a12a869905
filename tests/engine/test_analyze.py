"""Column-wise ANALYZE against the row-wise loop it replaced.

``reference_analyze`` is the per-cell implementation ``stats.analyze``
had before it went column by column; it stays here as the oracle.
"""

import datetime

import pytest

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.stats import ColumnStats, TableStats, analyze


def reference_analyze(table) -> TableStats:
    stats = TableStats(row_count=table.row_count, analyzed=True)
    names = [c.name.lower() for c in table.schema.columns]
    distinct = [set() for _ in names]
    mins = [None] * len(names)
    maxs = [None] * len(names)
    nulls = [0] * len(names)
    for _rowid, row in table.store.rows():
        for pos, value in enumerate(row):
            if value is None:
                nulls[pos] += 1
                continue
            if len(distinct[pos]) < 100_000:
                distinct[pos].add(value)
            if mins[pos] is None or value < mins[pos]:
                mins[pos] = value
            if maxs[pos] is None or value > maxs[pos]:
                maxs[pos] = value
    for pos, name in enumerate(names):
        stats.columns[name] = ColumnStats(
            n_distinct=len(distinct[pos]), min_value=mins[pos],
            max_value=maxs[pos], null_count=nulls[pos])
    return stats


def _table(storage, rows):
    db = Database(storage=storage)
    db.create_table(TableSchema("t", [
        Column("n", SqlType.integer()),
        Column("s", SqlType.varchar(12)),
        Column("d", SqlType.date()),
        Column("x", SqlType.decimal()),
    ]))
    db.bulk_load("t", rows)
    return db, db.catalog.table("t")


def _mixed_rows(count):
    day0 = datetime.date(1995, 1, 1)
    for i in range(count):
        yield (
            None if i % 11 == 0 else (i * 37) % 101 - 50,
            None if i % 5 == 0 else f"name{(i * 7) % 13}",
            None if i % 3 == 0 else day0 + datetime.timedelta(days=i % 60),
            None if i % 2 == 0 else float(i % 17) / 4,
        )


@pytest.mark.parametrize("storage", ["heap", "lsm"])
class TestColumnWiseAnalyze:
    def test_mixed_columns_with_nulls(self, storage):
        _db, table = _table(storage, _mixed_rows(500))
        stats = analyze(table)
        assert stats == reference_analyze(table)
        assert stats.columns["n"].null_count == 46
        assert stats.columns["s"].n_distinct == 13

    def test_empty_table(self, storage):
        _db, table = _table(storage, [])
        stats = analyze(table)
        assert stats == reference_analyze(table)
        assert stats.columns["d"] == ColumnStats(0, None, None, 0)

    def test_all_null_column(self, storage):
        _db, table = _table(storage, [(i, None, None, None)
                                      for i in range(20)])
        assert analyze(table) == reference_analyze(table)

    def test_after_deletes_and_updates(self, storage):
        db, table = _table(storage, _mixed_rows(200))
        db.execute("delete from t where n < 0")
        db.execute("update t set s = 'zz' where n > 40")
        assert analyze(table) == reference_analyze(table)

    def test_distinct_count_saturates_at_the_cap(self, storage):
        _db, table = _table(storage, ((i, str(i % 3), None, None)
                                      for i in range(100_050)))
        stats = analyze(table)
        assert stats == reference_analyze(table)
        assert stats.columns["n"].n_distinct == 100_000
        assert stats.columns["n"].max_value == 100_049

    def test_database_analyze_stores_the_same_stats(self, storage):
        db, table = _table(storage, _mixed_rows(100))
        db.analyze("t")
        assert db.stats["t"] == reference_analyze(table)
