import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.types import SqlType
from repro.r3.ddic import (
    DataDictionary,
    DDicField,
    DDicTable,
    TableKind,
)
from repro.r3.errors import DDicError
from repro.r3.pools import (
    ClusterContainer,
    PoolContainer,
    decode_row,
    encode_row,
)


def _pool_table():
    return DDicTable("a004", TableKind.POOL, [
        DDicField("kschl", SqlType.char(4), key=True),
        DDicField("matnr", SqlType.char(18), key=True),
        DDicField("knumh", SqlType.char(10)),
    ], container="kapol")


def _cluster_table():
    return DDicTable("konv", TableKind.CLUSTER, [
        DDicField("knumv", SqlType.char(10), key=True),
        DDicField("kposn", SqlType.char(6), key=True),
        DDicField("kschl", SqlType.char(4)),
        DDicField("kbetr", SqlType.decimal()),
    ], container="koclu", cluster_key_length=1)


class TestDataDictionary:
    def test_define_and_lookup(self):
        ddic = DataDictionary()
        ddic.define(_pool_table())
        assert ddic.lookup("A004").kind is TableKind.POOL

    def test_duplicate_rejected(self):
        ddic = DataDictionary()
        ddic.define(_pool_table())
        with pytest.raises(DDicError):
            ddic.define(_pool_table())

    def test_unknown_table(self):
        with pytest.raises(DDicError):
            DataDictionary().lookup("nope")

    def test_key_fields(self):
        table = _pool_table()
        assert [f.name for f in table.key_fields] == ["kschl", "matnr"]

    def test_encapsulated_needs_container(self):
        with pytest.raises(DDicError):
            DDicTable("x", TableKind.POOL,
                      [DDicField("a", SqlType.char(1), key=True)])

    def test_cluster_needs_cluster_key(self):
        with pytest.raises(DDicError):
            DDicTable("x", TableKind.CLUSTER,
                      [DDicField("a", SqlType.char(1), key=True)],
                      container="c")

    def test_transparent_schema_gets_mandt_first(self):
        table = DDicTable("vbak", TableKind.TRANSPARENT, [
            DDicField("vbeln", SqlType.char(10), key=True),
            DDicField("netwr", SqlType.decimal()),
        ])
        schema = table.to_table_schema()
        assert schema.columns[0].name == "mandt"
        assert schema.primary_key == ["mandt", "vbeln"]

    def test_convert_to_transparent(self):
        ddic = DataDictionary()
        table = ddic.define(_pool_table())
        ddic.convert_to_transparent("a004")
        assert table.kind is TableKind.TRANSPARENT
        assert table.container is None
        with pytest.raises(DDicError):
            ddic.convert_to_transparent("a004")


class TestEncoding:
    def test_roundtrip_all_types(self):
        fields = [
            DDicField("a", SqlType.char(5)),
            DDicField("b", SqlType.integer()),
            DDicField("c", SqlType.decimal()),
            DDicField("d", SqlType.date()),
        ]
        row = ("hi", 42, -3.25, datetime.date(1995, 6, 17))
        assert decode_row(encode_row(row), fields) == row

    def test_none_roundtrip(self):
        fields = [DDicField("a", SqlType.char(5))]
        assert decode_row(encode_row((None,)), fields) == (None,)

    def test_corrupt_row_detected(self):
        fields = [DDicField("a", SqlType.char(5)),
                  DDicField("b", SqlType.char(5))]
        with pytest.raises(DDicError):
            decode_row("only-one", fields)

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=8).filter(lambda s: "\x1e" not in s),
        st.integers(-10**6, 10**6),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ))
    def test_roundtrip_property(self, values):
        fields = [
            DDicField("a", SqlType.char(16)),
            DDicField("b", SqlType.integer()),
            DDicField("c", SqlType.decimal()),
        ]
        decoded = decode_row(encode_row(values), fields)
        assert decoded[0] == values[0]
        assert decoded[1] == values[1]
        assert decoded[2] == pytest.approx(float(values[2]))


class TestPoolContainer:
    def test_physical_row_shape(self):
        container = PoolContainer("kapol")
        table = _pool_table()
        row = ("301", "PR00", "M1", "H1")
        physical = container.physical_row(table, row)
        assert physical[0] == "a004"
        assert physical[1] == "301|PR00|M1"
        assert PoolContainer.decode(table, physical[2]) == row

    def test_physical_schema(self):
        schema = PoolContainer("kapol").physical_schema()
        assert schema.primary_key == ["tabname", "varkey"]


class TestClusterContainer:
    def _container(self):
        return ClusterContainer("koclu", [
            DDicField("knumv", SqlType.char(10), key=True)
        ])

    def test_pack_and_decode(self):
        container = self._container()
        table = _cluster_table()
        rows = [("V1", f"{i:06d}", "DISC", float(i)) for i in range(10)]
        pages = container.physical_rows("301", ("V1",), rows)
        assert all(page[0] == "301" and page[1] == "V1" for page in pages)
        decoded = []
        for page in pages:
            decoded.extend(ClusterContainer.decode_page(table, page[-1]))
        assert decoded == rows

    def test_large_cluster_spans_pages(self):
        container = self._container()
        table = _cluster_table()
        rows = [("V1", f"{i:06d}", "DISC", float(i)) for i in range(200)]
        pages = container.physical_rows("301", ("V1",), rows)
        assert len(pages) > 1
        assert [page[2] for page in pages] == list(range(len(pages)))

    def test_empty_cluster(self):
        container = self._container()
        assert container.physical_rows("301", ("V1",), []) == []

    def test_physical_schema_keys(self):
        schema = self._container().physical_schema()
        assert schema.primary_key == ["mandt", "knumv", "pagno"]
