"""The compiled row validator against ``SqlType.validate``, cell by cell.

``TableSchema.validate_row`` runs a function generated once per schema
that tests each cell's exact type (and string length) and calls
``SqlType.validate`` only for a cell that fails the test.  The
reference here is the definition it must not drift from: every cell
through ``SqlType.validate``, left to right.
"""

import datetime
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.errors import CatalogError, TypeError_
from repro.engine.schema import Column, TableSchema
from repro.engine.types import SqlType
from repro.tpcd.dbgen import generate
from repro.tpcd.schema import table_schemas


def reference_validate_row(schema: TableSchema, row) -> tuple:
    if len(row) != len(schema.columns):
        raise CatalogError(
            f"row width {len(row)} != {len(schema.columns)} for {schema.name}"
        )
    return tuple(
        col.sql_type.validate(value)
        for col, value in zip(schema.columns, row)
    )


def outcome(validate, schema, row):
    """What a caller can observe: typed cells, or the error raised."""
    try:
        out = validate(schema, row)
    except Exception as exc:  # the error is the observation compared
        return type(exc), str(exc)
    assert type(out) is tuple
    return [(type(value), value) for value in out]


sql_types = st.one_of(
    st.just(SqlType.integer()),
    st.just(SqlType.decimal()),
    st.just(SqlType.date()),
    st.builds(SqlType.char, st.integers(1, 12)),
    st.builds(SqlType.varchar, st.integers(1, 12)),
)

dates = st.dates(datetime.date(1990, 1, 1), datetime.date(2000, 12, 31))


def cells(sql_type: SqlType):
    """Fitting values, near misses and garbage for one column."""
    around = sql_type.length if sql_type.exact_type is str else 4
    return st.one_of(
        st.none(),
        st.integers(-10**6, 10**6),
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(min_size=max(0, around - 2), max_size=around + 2),
        dates,
        st.datetimes(datetime.datetime(1990, 1, 1),
                     datetime.datetime(2000, 12, 31)),
        dates.map(datetime.date.isoformat),
        st.sampled_from([b"bytes", Decimal("1.5"), (1, 2), "1995-13-45"]),
    )


@st.composite
def schemas_and_rows(draw):
    types = draw(st.lists(sql_types, min_size=1, max_size=20))
    schema = TableSchema(
        "t", [Column(f"c{i}", t) for i, t in enumerate(types)])
    rows = draw(st.lists(
        st.tuples(*[cells(t) for t in types]), min_size=1, max_size=4))
    # wrong widths: a cell too few, a cell too many
    rows.append(rows[0][:-1])
    rows.append(rows[0] + (None,))
    return schema, rows


@settings(max_examples=300, deadline=None)
@given(schemas_and_rows())
def test_compiled_validator_equals_cellwise_reference(case):
    schema, rows = case
    for row in rows:
        expected = outcome(reference_validate_row, schema, row)
        assert outcome(TableSchema.validate_row, schema, row) == expected
        # a list is as good a row as a tuple
        assert outcome(TableSchema.validate_row, schema, list(row)) == expected


def test_fitting_cells_are_returned_untouched():
    schema = TableSchema("t", [
        Column("i", SqlType.integer()), Column("d", SqlType.decimal()),
        Column("c", SqlType.char(3)), Column("v", SqlType.varchar(3)),
        Column("t", SqlType.date()),
    ])
    row = (10**20, 1.5, "abc", "", datetime.date(1995, 6, 17))
    out = schema.validate_row(row)
    assert all(a is b for a, b in zip(out, row))


def test_coercions_still_come_from_sqltype_validate():
    schema = TableSchema("t", [
        Column("d", SqlType.decimal()), Column("t", SqlType.date()),
        Column("u", SqlType.date()),
    ])
    stamp = datetime.datetime(1995, 6, 17, 12, 30)
    out = schema.validate_row((5, "1995-06-17", stamp))
    assert out == (5.0, datetime.date(1995, 6, 17), stamp)
    assert type(out[0]) is float and type(out[1]) is datetime.date
    with pytest.raises(TypeError_, match="expected int, got True"):
        TableSchema("b", [Column("i", SqlType.integer())]).validate_row((True,))


def test_wrong_width_raises_catalog_error():
    schema = TableSchema("t", [Column("i", SqlType.integer())])
    with pytest.raises(CatalogError, match="row width 2 != 1 for t"):
        schema.validate_row((1, 2))


def test_generated_rows_never_reach_sqltype_validate():
    """dbgen's rows fit their schema: the per-cell call is gone."""
    data = generate(0.0002)
    calls = []
    real = SqlType.validate

    def counting(self, value):
        calls.append(value)
        return real(self, value)

    # patched before the schemas exist: a validator binds its columns'
    # ``validate`` when it is compiled
    with mock.patch.object(SqlType, "validate", counting):
        for schema in table_schemas():
            for row in data.table(schema.name):
                assert schema.validate_row(row) == row
    assert calls == []


def test_validator_is_compiled_once_per_schema():
    schema = TableSchema("t", [Column("i", SqlType.integer())])
    schema.validate_row((1,))
    compiled = schema._validate_cells
    schema.validate_row((2,))
    assert schema._validate_cells is compiled
