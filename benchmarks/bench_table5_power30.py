"""Table 5: the TPC-D power test under SAP R/3 Release 3.0E."""

import pytest

from repro.core import paperdata
from repro.core.powertest import run_power_test
from repro.r3.appserver import R3Version


@pytest.fixture(scope="module")
def result(data, bench_sf):
    return run_power_test(bench_sf, R3Version.V30, data=data,
                          include_updates=True)


def test_table5_power30(benchmark, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    print()
    print(result.render())
    for variant in ("rdbms", "native", "open"):
        benchmark.extra_info[f"{variant}_total_s"] = round(
            result.total(variant), 1
        )
    rdbms = result.total("rdbms", queries_only=True)
    native = result.total("native", queries_only=True)
    open_sql = result.total("open", queries_only=True)
    assert rdbms < native < open_sql


def test_table5_upgrade_gain(benchmark, result, data, bench_sf):
    """Paper: both SAP interfaces got faster with the 3.0 rewrite."""
    result22 = run_power_test(bench_sf, R3Version.V22, data=data,
                              include_updates=False)
    benchmark.pedantic(lambda: result22, rounds=1, iterations=1)
    print()
    for variant in ("open", "native"):
        old, new = (r.total(variant, queries_only=True)
                    for r in (result22, result))
        paper_old, paper_new = (
            paperdata.total(table[variant], queries_only=True)
            for table in (paperdata.TABLE4_22G_S, paperdata.TABLE5_30E_S))
        print(f"{variant:>6}: 2.2 {old:.0f}s -> 3.0 {new:.0f}s "
              f"({old / new:.1f}x; paper {paper_old / paper_new:.1f}x)")
        assert new < old


def test_table5_unnesting_effect(benchmark, result):
    """Q2/Q11/Q16: manual unnesting makes Open SQL competitive."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    times = result.times
    overall = (result.total("open", queries_only=True)
               / result.total("native", queries_only=True))
    for name in ("Q2", "Q11", "Q16"):
        per_query = times["open"][name] / max(times["native"][name], 1e-9)
        print(f"{name}: open/native {per_query:.2f} "
              f"(suite average {overall:.2f})")
        assert per_query < overall
