import pytest

from repro.r3.appserver import R3System, R3Version
from repro.sapschema.loader import load_sap_batch_input, load_sap_fast
from repro.tpcd.dbgen import generate

TINY_SF = 0.0003


@pytest.fixture(scope="module")
def tiny_data():
    return generate(TINY_SF, seed=5)


class TestFastLoad:
    def test_loads_all_entities(self, r3_22, tpcd_data):
        counts = {
            "lfa1": len(tpcd_data.supplier),
            "mara": len(tpcd_data.part),
            "kna1": len(tpcd_data.customer),
            "vbak": len(tpcd_data.orders),
            "vbap": len(tpcd_data.lineitem),
            "vbep": len(tpcd_data.lineitem),
            "eina": len(tpcd_data.partsupp),
        }
        report = r3_22.db.storage_report()
        for table, expected in counts.items():
            assert report[table]["rows"] == expected

    def test_konv_is_clustered_in_22(self, r3_22, tpcd_data):
        report = r3_22.db.storage_report()
        assert "konv" not in report
        assert report["koclu"]["rows"] >= len(tpcd_data.orders)

    def test_views_created(self, r3_22):
        for view in ("wvbapep", "wvbakap", "weinaine", "wmaramkt",
                     "wt005tx"):
            assert r3_22.db.catalog.has_view(view)


class TestBatchInputLoad:
    def test_load_produces_timings_and_data(self, tiny_data):
        r3 = R3System(R3Version.V22)
        timings = load_sap_batch_input(r3, tiny_data, processes=2)
        assert set(timings.elapsed) == {
            "SUPPLIER", "PART", "PARTSUPP", "CUSTOMER", "ORDER+LINEITEM"
        }
        assert all(v > 0 for v in timings.elapsed.values())
        report = r3.db.storage_report()
        assert report["vbak"]["rows"] == len(tiny_data.orders)
        assert report["lfa1"]["rows"] == len(tiny_data.supplier)

    def test_orders_dominate_load_time(self, tiny_data):
        """The paper's Table 3 headline: ORDER+LINEITEM takes ~25 days
        while everything else takes hours."""
        r3 = R3System(R3Version.V22)
        timings = load_sap_batch_input(r3, tiny_data)
        others = sum(v for k, v in timings.elapsed.items()
                     if k != "ORDER+LINEITEM")
        assert timings.elapsed["ORDER+LINEITEM"] > others

    def test_parallel_processes_halve_effective_time(self, tiny_data):
        r3 = R3System(R3Version.V22)
        timings = load_sap_batch_input(r3, tiny_data, processes=2)
        assert timings.effective("PART") == \
            pytest.approx(timings.elapsed["PART"] / 2)

    def test_batch_load_equivalent_to_fast_load(self, tiny_data):
        slow = R3System(R3Version.V22)
        load_sap_batch_input(slow, tiny_data)
        fast = R3System(R3Version.V22)
        load_sap_fast(fast, tiny_data)
        slow_rows = sorted(
            r for _id, r in slow.db.catalog.table("vbap").store.rows()
        )
        fast_rows = sorted(
            r for _id, r in fast.db.catalog.table("vbap").store.rows()
        )
        assert slow_rows == fast_rows

    def test_batch_input_much_slower_than_bulk(self, tiny_data):
        slow = R3System(R3Version.V22)
        span = slow.measure()
        load_sap_batch_input(slow, tiny_data)
        batch_time = span.stop()
        fast = R3System(R3Version.V22)
        span = fast.measure()
        load_sap_fast(fast, tiny_data, analyze=False)
        bulk_time = span.stop()
        assert batch_time > 10 * bulk_time
