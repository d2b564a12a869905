"""The generated row encoder against ``encode_row``.

The dictionary generates one encoder per table beside its decoder
(``DDicTable.encode_pool_row`` / ``encode_cluster_row``): per field the
text of a value of the field's own type, anything else — NULL, a
coercible stranger — through ``encode_value``.  The generic
``encode_row`` stays here as what it must not drift from.
"""

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.types import SqlType
from repro.r3.appserver import R3System, R3Version
from repro.r3.ddic import DDicField, DDicTable, TableKind
from repro.r3.errors import DDicError
from repro.r3.pools import ClusterContainer, encode_row, row_encoder
from repro.sapschema import mapping
from repro.sapschema.tables import activate_sap_schema
from repro.tpcd.dbgen import generate

sql_types = st.sampled_from([
    SqlType.integer(), SqlType.decimal(), SqlType.date(),
    SqlType.char(8), SqlType.varchar(20)])
dates = st.dates(datetime.date(1990, 1, 1), datetime.date(2000, 12, 31))
#: values of every column type and strangers among them: a bool in an
#: INTEGER, an int in a DECIMAL, an ISO string in a DATE, a datetime
values = st.one_of(
    st.none(), st.integers(-10**6, 10**6), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False), dates,
    st.datetimes(datetime.datetime(1990, 1, 1),
                 datetime.datetime(2000, 12, 31)),
    dates.map(datetime.date.isoformat),
    st.text("abc xyz", max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(sql_types, values), min_size=1, max_size=12))
def test_generated_encoder_equals_encode_row(columns):
    fields = [DDicField(f"f{i}", sql_type)
              for i, (sql_type, _value) in enumerate(columns)]
    row = tuple(value for _sql_type, value in columns)
    assert row_encoder(fields)(row) == encode_row(row)
    assert row_encoder(fields)(list(row)) == encode_row(row)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decoding_an_encoded_row_gives_the_row_back(data):
    kinds = {
        SqlType.integer(): st.integers(-10**6, 10**6),
        SqlType.decimal(): st.floats(allow_nan=False, allow_infinity=False),
        SqlType.date(): dates,
        SqlType.char(8): st.text("abc xyz", max_size=8),
    }
    types = data.draw(st.lists(st.sampled_from(list(kinds)),
                               min_size=1, max_size=10))
    table = DDicTable("t", TableKind.POOL, [
        DDicField(f"f{i}", sql_type, key=i == 0)
        for i, sql_type in enumerate(types)], container="p")
    row = tuple(data.draw(st.one_of(st.none(), kinds[sql_type]))
                for sql_type in types)
    assert table.decode_cluster_row(table.encode_cluster_row(row)) == row
    full = ("301",) + row
    assert table.decode_pool_row(table.encode_pool_row(full)) == full


def test_a_row_of_the_wrong_width_is_refused_by_name():
    table = DDicTable("t", TableKind.POOL, [
        DDicField("a", SqlType.char(2), key=True),
        DDicField("b", SqlType.integer())], container="p")
    with pytest.raises(DDicError, match="t: 3 values, 2 fields expected"):
        table.encode_cluster_row(("a", 1, 2))
    with pytest.raises(DDicError, match="t: 2 values, 3 fields expected"):
        table.encode_pool_row(("a", 1))


def test_every_logical_row_of_a_data_set():
    """Each encapsulated table's rows through its own encoder, and the
    containers store what the generic encoder would have stored."""
    r3 = R3System(R3Version.V22)
    activate_sap_schema(r3)
    encoded = 0
    for name, rows, cluster_key in mapping.load_stream(generate(0.0005)):
        table = r3.ddic.lookup(name)
        if table.kind is TableKind.TRANSPARENT:
            continue
        physical_name, rendered = r3.render_rows(name, rows, cluster_key)
        if table.kind is TableKind.POOL:
            full_rows = [(r3.client, *row) for row in rows]
            assert [row[2] for row in rendered] == \
                [encode_row(row) for row in full_rows]
            assert [table.encode_pool_row(row) for row in full_rows] == \
                [row[2] for row in rendered]
            assert physical_name == r3.pools[table.container].name
        else:
            assert [table.encode_cluster_row(row) for row in rows] == \
                [encode_row(row) for row in rows]
            container = r3.clusters[table.container]
            assert rendered == ClusterContainer.physical_rows(
                container, r3.client, cluster_key, rows)  # generic encoder
        encoded += len(rows)
    assert encoded > 5000
