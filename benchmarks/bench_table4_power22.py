"""Table 4: the TPC-D power test under SAP R/3 Release 2.2G."""

import pytest

from repro.core.powertest import run_power_test
from repro.r3.appserver import R3Version


@pytest.fixture(scope="module")
def result(data, bench_sf):
    return run_power_test(bench_sf, R3Version.V22, data=data,
                          include_updates=True)


def test_table4_power22(benchmark, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    print()
    print(result.render())
    for variant in ("rdbms", "native", "open"):
        benchmark.extra_info[f"{variant}_total_s"] = round(
            result.total(variant), 1
        )
    # Paper Table 4 orderings:
    rdbms = result.total("rdbms", queries_only=True)
    native = result.total("native", queries_only=True)
    open_sql = result.total("open", queries_only=True)
    assert rdbms < native < open_sql


def test_table4_shape_vs_paper(benchmark, result):
    """Report the measured-vs-paper slowdown ratios per variant."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    print(result.render_vs_paper())
    rdbms = result.total("rdbms", queries_only=True)
    for variant in ("native", "open"):
        assert result.total(variant, queries_only=True) / rdbms > 1.5
