import pytest

from repro.engine.types import SqlType
from repro.r3.appserver import R3System, R3Version
from repro.r3.batchinput import (
    BatchInputSession,
    BatchTransaction,
    effective_parallel_time,
)
from repro.r3.ddic import DDicField, DDicTable, TableKind
from repro.r3.errors import BatchInputError, DDicError, R3Error
from repro.r3.upgrade import upgrade_to_30


def _system():
    r3 = R3System(R3Version.V22)
    r3.define_cluster("koclu", [DDicField("knumv", SqlType.char(10),
                                          key=True)])
    r3.activate_table(DDicTable("t005", TableKind.TRANSPARENT, [
        DDicField("land1", SqlType.char(3), key=True),
    ]))
    r3.activate_table(DDicTable("lfa1", TableKind.TRANSPARENT, [
        DDicField("lifnr", SqlType.char(10), key=True),
        DDicField("land1", SqlType.char(3)),
    ]))
    r3.activate_table(DDicTable("konv", TableKind.CLUSTER, [
        DDicField("knumv", SqlType.char(10), key=True),
        DDicField("kposn", SqlType.char(6), key=True),
        DDicField("kbetr", SqlType.decimal()),
    ], container="koclu", cluster_key_length=1))
    r3.insert_logical("t005", ("007",))
    return r3


class TestBatchInput:
    def test_successful_transaction(self):
        r3 = _system()
        session = BatchInputSession(r3)
        session.run(BatchTransaction(
            screens=2,
            checks=[("SELECT SINGLE land1 FROM t005 WHERE land1 = :l",
                     {"l": "007"})],
            inserts=[("lfa1", ("S1", "007"))],
        ))
        assert session.stats.transactions == 1
        assert session.stats.records_inserted == 1
        assert r3.open_sql.select_single(
            "SELECT SINGLE land1 FROM lfa1 WHERE lifnr = :l",
            {"l": "S1"}) == ("007",)

    def test_failed_check_aborts(self):
        r3 = _system()
        session = BatchInputSession(r3)
        with pytest.raises(BatchInputError):
            session.run(BatchTransaction(
                screens=1,
                checks=[("SELECT SINGLE land1 FROM t005 WHERE land1 = :l",
                         {"l": "999"})],
                inserts=[("lfa1", ("S1", "999"))],
            ))
        assert r3.open_sql.select(
            "SELECT lifnr FROM lfa1").rows == []

    def test_screens_and_overhead_charge_time(self):
        r3 = _system()
        session = BatchInputSession(r3)
        span = r3.measure()
        session.run(BatchTransaction(screens=3))
        elapsed = span.stop()
        expected_min = 3 * r3.params.screen_s + \
            r3.params.batch_record_overhead_s
        assert elapsed >= expected_min

    def test_cluster_insert(self):
        r3 = _system()
        session = BatchInputSession(r3)
        session.run(BatchTransaction(
            screens=1,
            cluster_inserts=[("konv", ("V1",), [
                ("V1", "000001", -50.0), ("V1", "000002", -60.0),
            ])],
        ))
        rows = r3.open_sql.select(
            "SELECT kposn kbetr FROM konv WHERE knumv = :k", {"k": "V1"})
        assert len(rows) == 2

    def test_deletes_run_through_dbif(self):
        r3 = _system()
        session = BatchInputSession(r3)
        r3.insert_logical("lfa1", ("S1", "007"))
        session.run(BatchTransaction(
            screens=1,
            deletes=[("DELETE FROM lfa1 WHERE mandt = ? AND lifnr = ?",
                      (r3.client, "S1"))],
        ))
        assert r3.open_sql.select("SELECT lifnr FROM lfa1").rows == []

    def test_parallel_time_helper(self):
        assert effective_parallel_time(100.0, 2) == 50.0
        with pytest.raises(ValueError):
            effective_parallel_time(1.0, 0)


class TestClusterRules:
    def test_single_row_insert_into_cluster_rejected(self):
        r3 = _system()
        with pytest.raises(DDicError):
            r3.insert_logical("konv", ("V1", "000001", -10.0))

    def test_cluster_insert_into_transparent_degrades(self):
        r3 = _system()
        r3.version = R3Version.V30
        r3.convert_table("konv")
        r3.insert_cluster("konv", ("V9",), [("V9", "000001", -10.0)])
        rows = r3.open_sql.select(
            "SELECT kbetr FROM konv WHERE knumv = :k", {"k": "V9"})
        assert rows.rows == [(-10.0,)]


class TestUpgrade:
    def _loaded(self):
        r3 = _system()
        for doc in range(5):
            r3.insert_cluster("konv", (f"V{doc}",), [
                (f"V{doc}", f"{i:06d}", -float(i)) for i in range(1, 4)
            ])
        return r3

    def test_upgrade_converts_konv(self):
        r3 = self._loaded()
        report = upgrade_to_30(r3)
        assert r3.version is R3Version.V30
        assert report.converted_tables == ["konv"]
        assert not r3.ddic.lookup("konv").encapsulated
        rows = r3.open_sql.select(
            "SELECT kposn FROM konv WHERE knumv = :k", {"k": "V2"})
        assert len(rows) == 3

    def test_upgrade_grows_database(self):
        r3 = self._loaded()
        report = upgrade_to_30(r3)
        assert report.db_bytes_after > report.db_bytes_before

    def test_upgrade_takes_time(self):
        r3 = self._loaded()
        report = upgrade_to_30(r3)
        assert report.elapsed_simulated_s > 3600

    def test_cluster_conversion_gated_in_22(self):
        r3 = self._loaded()
        with pytest.raises(DDicError, match="3.0"):
            r3.convert_table("konv")

    def test_double_upgrade_rejected(self):
        r3 = self._loaded()
        upgrade_to_30(r3)
        with pytest.raises(R3Error):
            upgrade_to_30(r3)

    def test_native_sql_sees_konv_after_upgrade(self):
        r3 = self._loaded()
        upgrade_to_30(r3)
        result = r3.native_sql.exec_sql(
            f"SELECT COUNT(*) FROM konv WHERE mandt = '{r3.client}'"
        )
        assert result.scalar() == 15
