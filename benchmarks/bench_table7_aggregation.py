"""Table 7 / Figure 4: complex aggregation, pushed down vs in ABAP."""

from repro.core.experiments import table7_aggregation


def test_table7_aggregation(benchmark, r3_30):
    result = benchmark.pedantic(
        lambda: table7_aggregation(r3_30), rounds=1, iterations=1,
    )
    print()
    print(result.render())
    ratio = result.open_s / max(result.native_s, 1e-9)
    benchmark.extra_info["open_over_native"] = round(ratio, 2)
    assert result.rows_match
    assert result.open_s > 2 * result.native_s
