"""Shape tests: do the reproduced experiments show the paper's effects?
And does each render print the reproduced figures beside the paper's?"""

import re

import pytest

from repro.core import experiments as ex
from repro.core import paperdata
from repro.core.results import duration_cell, kb_cell


def cells(text: str, label: str) -> list[str]:
    """The cells of the rendered table row labelled ``label``."""
    for line in text.splitlines():
        row = re.split(r"\s{2,}", line.strip())
        if row[0] == label:
            return row
    raise AssertionError(f"no row {label!r} in\n{text}")


@pytest.fixture(scope="module")
def table2(tpcd_data, rdbms_db, r3_22):
    return ex.table2_dbsize(data=tpcd_data, db=rdbms_db, r3=r3_22)


class TestTable1:
    def test_inventory_matches_paper(self):
        rows = ex.table1_schema_mapping()
        assert len(rows) == 17
        names = {row[0] for row in rows}
        assert {"KONV", "VBAP", "MARA", "STXL"} <= names


class TestTable2:
    def test_sap_data_is_several_times_larger(self, table2):
        """Paper: ~10x data inflation.  Shape: well above 3x."""
        assert table2.data_inflation > 3.0

    def test_sap_indexes_are_several_times_larger(self, table2):
        """Paper: ~8x index inflation.  Shape: well above 2x."""
        assert table2.index_inflation > 2.0

    def test_lineitem_dominates_both_databases(self, table2):
        entities = table2.entities
        biggest_orig = max(entities, key=lambda e: entities[e]["orig_data"])
        biggest_sap = max(entities, key=lambda e: entities[e]["sap_data"])
        assert biggest_orig == biggest_sap == "LINEITEM"

    def test_every_entity_is_inflated(self, table2):
        for entity, entry in table2.entities.items():
            if entity in ("REGION", "NATION"):
                continue  # page-granularity noise on 5/25-row tables
            assert entry["sap_data"] > entry["orig_data"], entity

    def test_render_beside_paper(self, table2):
        text = table2.render()
        for entity, e in table2.entities.items():
            (p_orig_data, p_orig_idx) = paperdata.TABLE2_ORIGINAL_KB[entity]
            (p_sap_data, p_sap_idx) = paperdata.TABLE2_SAP_KB[entity]
            row = cells(text, entity)
            assert row[1:5] == [kb_cell(e[key]) for key in (
                "orig_data", "orig_index", "sap_data", "sap_index")]
            assert row[6] == f"{p_sap_data / p_orig_data:.1f}x"
            assert row[8] == (f"{p_sap_idx / p_orig_idx:.1f}x"
                              if p_orig_idx else "-")
        orig_d, orig_i = paperdata.TABLE2_TOTAL_ORIGINAL_KB
        sap_d, sap_i = paperdata.TABLE2_TOTAL_SAP_KB
        assert cells(text, "Total")[5:] == [
            f"{table2.data_inflation:.1f}x", f"{sap_d / orig_d:.1f}x",
            f"{table2.index_inflation:.1f}x", f"{sap_i / orig_i:.1f}x"]

    def test_paper_reported_inflations(self):
        orig_d, orig_i = paperdata.TABLE2_TOTAL_ORIGINAL_KB
        sap_d, sap_i = paperdata.TABLE2_TOTAL_SAP_KB
        assert sap_d / orig_d == pytest.approx(10.4, abs=0.2)
        assert sap_i / orig_i == pytest.approx(8.2, abs=0.2)


class TestTable3:
    @pytest.fixture(scope="class")
    def timings(self):
        return ex.table3_loading(scale_factor=0.0003)

    def test_orders_dominate(self, timings):
        other = sum(v for k, v in timings.elapsed.items()
                    if k != "ORDER+LINEITEM")
        assert timings.elapsed["ORDER+LINEITEM"] > 2 * other

    def test_render_beside_paper(self, timings):
        text = ex.render_table3(timings)
        for entity, seconds in paperdata.TABLE3_LOADING_S.items():
            assert cells(text, entity)[1:] == [
                duration_cell(timings.effective(entity)),
                duration_cell(seconds)]

    def test_ordering_matches_paper(self, timings):
        """PARTSUPP > PART > CUSTOMER > SUPPLIER in the paper."""
        assert timings.elapsed["PARTSUPP"] > timings.elapsed["CUSTOMER"]
        assert timings.elapsed["CUSTOMER"] > timings.elapsed["SUPPLIER"]


class TestTable6:
    @pytest.fixture(scope="class")
    def result(self, r3_30):
        return ex.table6_plan_choice(r3_30)

    def test_high_selectivity_fast_for_both(self, result):
        assert result.times[("native", "high")] < 1.0
        assert result.times[("open", "high")] < 1.0

    def test_open_low_selectivity_disaster(self, result):
        """The headline: blind parameterized plan is an order of
        magnitude worse (paper: 4m56s vs 1h50m)."""
        native_low = result.times[("native", "low")]
        open_low = result.times[("open", "low")]
        assert open_low > 10 * native_low

    def test_render_beside_paper(self, result):
        text = result.render()
        for label, title in (("high", "high (0 result tuples)"),
                             ("low", "low (all tuples qualify)")):
            assert cells(text, title)[1:] == [
                duration_cell(result.times[("native", label)]),
                str(result.rows[("native", label)]),
                duration_cell(result.times[("open", label)]),
                str(result.rows[("open", label)]),
                duration_cell(paperdata.TABLE6_S[("native", label)]),
                duration_cell(paperdata.TABLE6_S[("open", label)])]
        assert result.plans["open_low"] in text

    def test_plans_differ(self, result):
        assert "SeqScan" in result.plans["native_low"]
        assert "IndexRangeScan" in result.plans["open_low"]

    def test_same_rows_either_way(self, result):
        assert result.rows[("native", "low")] == \
            result.rows[("open", "low")]
        assert result.rows[("native", "high")] == 0


class TestTable7:
    @pytest.fixture(scope="class")
    def result(self, r3_30):
        return ex.table7_aggregation(r3_30)

    def test_open_costs_multiple_of_native(self, result):
        """Paper: 13m48s vs 4m11s (3.3x)."""
        assert result.open_s > 2 * result.native_s

    def test_results_identical(self, result):
        assert result.rows_match

    def test_render_beside_paper(self, result):
        text = result.render()
        assert cells(text, "reproduced")[1:3] == [
            duration_cell(result.native_s), duration_cell(result.open_s)]
        assert cells(text, "paper")[1:3] == [
            duration_cell(paperdata.TABLE7_S["native"]),
            duration_cell(paperdata.TABLE7_S["open"])]
        assert "match=True" in text


class TestTable8:
    @pytest.fixture(scope="class")
    def result(self, r3_30):
        return ex.table8_caching(r3_30)

    def test_small_cache_is_a_wash(self, result):
        none_cost = result.configs["none"][1]
        small_cost = result.configs["small"][1]
        assert small_cost == pytest.approx(none_cost, rel=0.5)

    def test_large_cache_wins_big(self, result):
        """Paper: 1h48m -> 35m (3x); the shape bound is 2x."""
        none_cost = result.configs["none"][1]
        large_cost = result.configs["large"][1]
        assert none_cost > 2 * large_cost

    def test_render_beside_paper(self, result):
        text = result.render()
        for label, (hit_ratio, cost) in result.configs.items():
            paper_hit, paper_cost = paperdata.TABLE8[label]
            assert cells(text, label)[1:] == [
                f"{hit_ratio:.0%}", duration_cell(cost), f"{paper_hit:.0%}",
                duration_cell(paper_cost)]
        assert f"{result.lookups:,} small MARA queries" in text
        assert f"{paperdata.TABLE8_LOOKUPS:,}" in text

    def test_cli_prints_the_render(self, capsys):
        from repro.__main__ import main
        from repro.core.powertest import build_sap_system
        from repro.r3.appserver import R3Version
        from repro.tpcd.dbgen import generate

        assert main(["caching", "--sf", "0.0005"]) == 0
        printed = capsys.readouterr().out
        r3 = build_sap_system(generate(0.0005), R3Version.V30)
        assert printed == ex.table8_caching(r3).render() + "\n"

    def test_hit_ratios_ordered(self, result):
        assert result.configs["none"][0] == 0.0
        assert 0.0 < result.configs["small"][0] < 0.6
        assert result.configs["large"][0] > 0.6


class TestTable9:
    @pytest.fixture(scope="class")
    def results(self, r3_30):
        return ex.table9_warehouse(r3_30)

    def test_all_eight_tables_extracted(self, results, tpcd_data):
        assert set(results) == {
            "REGION", "NATION", "SUPPLIER", "PART", "PARTSUPP",
            "CUSTOMER", "ORDER", "LINEITEM",
        }
        assert results["LINEITEM"].rows == len(tpcd_data.lineitem)
        assert results["ORDER"].rows == len(tpcd_data.orders)

    def test_render_beside_paper(self, results):
        text = ex.render_table9(results)
        for name, seconds in paperdata.TABLE9_S.items():
            assert cells(text, name)[1:] == [
                str(results[name].rows),
                duration_cell(results[name].elapsed_s),
                duration_cell(seconds)]
        assert cells(text, "total")[-1] == duration_cell(
            paperdata.TABLE9_TOTAL_S)

    def test_lineitem_dominates_cost(self, results):
        lineitem = results["LINEITEM"].elapsed_s
        rest = sum(r.elapsed_s for name, r in results.items()
                   if name != "LINEITEM")
        assert lineitem > rest

    def test_extraction_reconstructs_keys(self, r3_30, tpcd_data):
        from repro.warehouse.extract import extract_region

        lines = extract_region(r3_30)
        keys = sorted(int(line.split("|")[0]) for line in lines)
        assert keys == [0, 1, 2, 3, 4]
