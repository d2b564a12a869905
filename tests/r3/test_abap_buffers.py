import pytest

from repro.engine.types import SqlType
from repro.r3.abap import InternalTable, group_aggregate
from repro.r3.appserver import R3System, R3Version
from repro.r3.ddic import DDicField, DDicTable, TableKind


@pytest.fixture()
def r3():
    system = R3System(R3Version.V22)
    system.activate_table(DDicTable("mara", TableKind.TRANSPARENT, [
        DDicField("matnr", SqlType.char(18), key=True),
        DDicField("mtart", SqlType.char(25)),
    ]))
    for i in range(50):
        system.insert_logical("mara", (f"M{i:03d}", f"T{i % 5}"))
    system.db.analyze()
    return system


class TestInternalTable:
    def test_append_charges_abap(self, r3):
        before = r3.metrics.get("abap.rows_processed")
        itab = InternalTable(r3)
        itab.append((1,))
        assert r3.metrics.get("abap.rows_processed") == before + 1

    def test_extract_counts(self, r3):
        itab = InternalTable(r3)
        itab.extract((1,))
        itab.extract((2,))
        assert r3.metrics.get("abap.extracts") == 2

    def test_sort_via_disk_spills(self, r3):
        itab = InternalTable(r3)
        for i in range(100):
            itab.extract((100 - i, i))
        before = r3.metrics.get("abap.sort_spills")
        itab.sort(lambda row: (row[0],))
        assert r3.metrics.get("abap.sort_spills") == before + 1
        assert itab.rows[0][0] == 1

    def test_sort_in_memory_for_presentation(self, r3):
        itab = InternalTable(r3)
        itab.extend([(3,), (1,), (2,)])
        before = r3.metrics.get("abap.sort_spills")
        itab.sort(via_disk=False)
        assert r3.metrics.get("abap.sort_spills") == before
        assert [row[0] for row in itab.rows] == [1, 2, 3]

    def test_group_aggregate_at_end_semantics(self, r3):
        groups = group_aggregate(r3, [("b", 3), ("a", 1), ("a", 2)],
                                 lambda row: (row[0],),
                                 lambda key, rows: (key, rows))
        assert groups == [(("a",), [("a", 1), ("a", 2)]),
                          (("b",), [("b", 3)])]

    def test_read_binary(self, r3):
        itab = InternalTable(r3)
        itab.extend([("b", 2), ("a", 1), ("c", 3)])
        itab.sort(lambda row: (row[0],), via_disk=False)
        assert itab.read_binary(("b",)) == ("b", 2)
        assert itab.read_binary(("zz",)) is None

    def test_read_binary_requires_sort(self, r3):
        itab = InternalTable(r3)
        itab.append(("a",))
        with pytest.raises(RuntimeError):
            itab.read_binary(("a",))

    def test_read_binary_all(self, r3):
        itab = InternalTable(r3)
        itab.extend([("a", 1), ("a", 2), ("b", 3)])
        itab.sort(lambda row: (row[0],), via_disk=False)
        assert itab.read_binary_all(("a",)) == [("a", 1), ("a", 2)]
        assert itab.read_binary_all(("x",)) == []

    def test_group_aggregate_end_to_end(self, r3):
        records = [("x", 2.0), ("y", 3.0), ("x", 4.0)]
        out = group_aggregate(
            r3, records, lambda g: (g[0],),
            lambda key, group: key + (sum(g[1] for g in group),),
        )
        assert sorted(out) == [("x", 6.0), ("y", 3.0)]


class TestTableBuffers:
    def test_miss_then_hit(self, r3):
        r3.buffers.configure("mara", 1 << 20)
        first = r3.open_sql.select_single(
            "SELECT SINGLE mtart FROM mara WHERE matnr = :m",
            {"m": "M001"})
        roundtrips = r3.metrics.get("dbif.roundtrips")
        second = r3.open_sql.select_single(
            "SELECT SINGLE mtart FROM mara WHERE matnr = :m",
            {"m": "M001"})
        assert first == second
        # buffered: no further round trip
        assert r3.metrics.get("dbif.roundtrips") == roundtrips
        assert r3.buffers.stats("mara").hits == 1

    def test_negative_caching(self, r3):
        r3.buffers.configure("mara", 1 << 20)
        for _ in range(2):
            row = r3.open_sql.select_single(
                "SELECT SINGLE mtart FROM mara WHERE matnr = :m",
                {"m": "MISSING"})
            assert row is None
        assert r3.buffers.stats("mara").hits == 1

    def test_eviction_under_byte_budget(self, r3):
        buffer = r3.buffers.configure("mara", 200)  # a handful of rows
        capacity = buffer.capacity_rows
        for i in range(capacity + 5):
            r3.open_sql.select_single(
                "SELECT SINGLE mtart FROM mara WHERE matnr = :m",
                {"m": f"M{i:03d}"})
        assert buffer.stats.evictions == 5

    def test_invalidation_on_insert(self, r3):
        r3.buffers.configure("mara", 1 << 20)
        r3.open_sql.select_single(
            "SELECT SINGLE mtart FROM mara WHERE matnr = :m",
            {"m": "M001"})
        r3.insert_logical("mara", ("M999", "T9"))
        _active, hit, _row = r3.buffers.lookup(
            "mara", (r3.client, "M001"))
        assert hit is False

    def test_non_key_lookup_bypasses_buffer(self, r3):
        r3.buffers.configure("mara", 1 << 20)
        r3.open_sql.select_single(
            "SELECT SINGLE matnr FROM mara WHERE mtart = 'T1'")
        assert r3.buffers.stats("mara").lookups == 0

    def test_hit_ratio(self, r3):
        r3.buffers.configure("mara", 1 << 20)
        for _ in range(4):
            r3.open_sql.select_single(
                "SELECT SINGLE mtart FROM mara WHERE matnr = :m",
                {"m": "M002"})
        assert r3.buffers.stats("mara").hit_ratio == pytest.approx(0.75)
