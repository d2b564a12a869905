"""Column-wise ANALYZE against the loops it replaced.

``reference_analyze`` is the per-cell implementation ``stats.analyze``
had before it went column by column, ``listwise_analyze`` the one it
had before it read everything off a column's set of distinct values;
both stay here as oracles.
"""

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Column, Database, SqlType, TableSchema
from repro.engine.stats import (
    MAX_DISTINCT_TRACKED,
    ColumnStats,
    TableStats,
    analyze,
)


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


def listwise_analyze(table) -> TableStats:
    """One list of non-NULL values per column, ``min`` and ``max`` over
    the list."""
    stats = TableStats(row_count=table.row_count, analyzed=True)
    rows = [row for _rowid, row in table.store.rows()]
    for pos, column in enumerate(table.schema.columns):
        values = [row[pos] for row in rows if row[pos] is not None]
        stats.columns[column.name.lower()] = ColumnStats(
            n_distinct=min(len(set(values)), MAX_DISTINCT_TRACKED),
            min_value=min(values, default=None),
            max_value=max(values, default=None),
            null_count=len(rows) - len(values),
        )
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


# -- the distinct set against the list ---------------------------------------

day0 = datetime.date(1995, 1, 1)
#: per column a small domain, so that equal values meet: ints beside
#: equal floats (``1`` and ``1.0`` are one distinct value, and which of
#: them is the minimum is "the first"), dates, strings, NULLs
cells = st.tuples(
    st.one_of(st.none(), st.integers(-2, 2),
              st.integers(-2, 2).map(float), st.just(0.5)),
    st.one_of(st.none(), st.sampled_from(["", "a", "b", "ab"])),
    st.one_of(st.none(), st.integers(0, 3).map(
        lambda n: day0 + datetime.timedelta(days=n))),
    st.one_of(st.none(), st.just(7.0)),
)


@pytest.mark.parametrize("storage", ["heap", "lsm"])
@settings(max_examples=60, deadline=None)
@given(st.lists(cells, max_size=40), st.integers(0, 3))
def test_set_wise_equals_list_wise(storage, rows, all_null):
    rows = [row[:all_null] + (None,) + row[all_null + 1:] for row in rows]
    db, table = _table(storage, [])
    for row in rows:  # unvalidated: an int stays beside an equal float
        table.store.append(row, bulk=True)
    expected = listwise_analyze(table)
    # ``repr``: 1 == 1.0, and which of the two is reported is the point
    assert repr(analyze(table)) == repr(expected)
    assert repr(reference_analyze(table)) == repr(expected)
    assert expected.row_count == len(rows)


@pytest.mark.parametrize("upgraded", [False, True], ids=["2.2", "3.0"])
def test_every_table_of_a_loaded_sap_system(upgraded):
    from repro.r3.appserver import R3System, R3Version
    from repro.r3.upgrade import upgrade_to_30
    from repro.sapschema.loader import load_sap_fast
    from repro.tpcd.dbgen import generate

    r3 = R3System(R3Version.V22)
    load_sap_fast(r3, generate(0.0005), analyze=False)
    if upgraded:
        upgrade_to_30(r3)
    r3.db.analyze()
    assert len(r3.db.catalog.table_names) > 15
    for name in r3.db.catalog.table_names:
        table = r3.db.catalog.table(name)
        assert repr(r3.db.stats[name]) == repr(listwise_analyze(table)), name
