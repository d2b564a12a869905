"""EIS warehouse extension tests."""

import pytest

from repro.tpcd.answers import assert_rows_match
from repro.tpcd.queries import build_queries, run_query
from repro.sim.clock import format_duration
from repro.warehouse.eis import (
    EisBreakeven,
    EisWarehouse,
    breakeven_queries,
    parse_feed_line,
)
from tests.conftest import SF


@pytest.fixture(scope="module")
def warehouse(r3_30):
    return EisWarehouse.build_from_sap(r3_30)


class TestFeedParsing:
    def test_lineitem_line(self):
        line = ("7|3|2|1|10.0|1234.5|0.05|0.02|N|O|1996-01-02|"
                "1996-02-01|1996-01-20|NONE|MAIL|a comment")
        row = parse_feed_line("lineitem", line)
        assert row[0] == 7 and row[4] == 10.0
        assert row[10].isoformat() == "1996-01-02"

    def test_padding_for_lost_comments(self):
        row = parse_feed_line("region", "0|AFRICA")
        assert row == (0, "AFRICA", "")

    def test_field_count_checked(self):
        with pytest.raises(ValueError):
            parse_feed_line("region", "0|AFRICA|x|y")


class TestWarehouse:
    def test_build_loads_everything(self, warehouse, tpcd_data):
        db = warehouse.db
        assert db.execute("SELECT COUNT(*) FROM lineitem").scalar() == \
            len(tpcd_data.lineitem)
        assert db.execute("SELECT COUNT(*) FROM orders").scalar() == \
            len(tpcd_data.orders)
        assert warehouse.build.rows_loaded > 0

    def test_warehouse_answers_match_rdbms(self, warehouse,
                                           reference_results):
        """Most queries must be answerable identically from the feed.

        Queries touching columns the SAP mapping drops (nation/region/
        partsupp comments) still run; Q16 touches s_comment which IS
        preserved via STXL."""
        for number in (1, 3, 4, 5, 6, 7, 8, 10, 12, 13, 14, 15, 16, 17):
            got = warehouse.run_query(number, SF)
            assert_rows_match(reference_results[number], got.rows,
                              label=f"Q{number}/eis")

    def test_warehouse_queries_cost_like_rdbms(self, warehouse,
                                               rdbms_db):
        spec = build_queries(SF)[6]
        span = rdbms_db.clock.span()
        run_query(rdbms_db, spec)
        rdbms_s = span.stop()
        warehouse.run_query(6, SF)
        eis_s = warehouse.query_times["Q6"]
        assert eis_s == pytest.approx(rdbms_s, rel=1.0)

    def test_breakeven_math(self):
        assert breakeven_queries(100.0, 20.0, 10.0) == 10.0
        assert breakeven_queries(100.0, 10.0, 20.0) == float("inf")

    def test_breakeven_render(self, warehouse):
        build = warehouse.build
        study = EisBreakeven(warehouse, warehouse_total_s=60.0,
                             open_total_s=60.0 + build.total_s / 2)
        assert study.rounds == pytest.approx(2.0)
        text = study.render()
        for seconds in (build.total_s, build.extraction_s, build.load_s,
                        60.0, study.open_total_s):
            assert format_duration(seconds) in text
        assert "~2.0 power-test rounds (~34 queries)" in text
