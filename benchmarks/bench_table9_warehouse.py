"""Table 9: the cost of constructing an SAP data warehouse."""

from repro.core.experiments import render_table9, table9_warehouse


def test_table9_warehouse(benchmark, r3_30):
    results = benchmark.pedantic(
        lambda: table9_warehouse(r3_30), rounds=1, iterations=1,
    )
    print()
    print(render_table9(results))
    total = sum(r.elapsed_s for r in results.values())
    benchmark.extra_info["total_simulated_s"] = round(total, 1)
    lineitem = results["LINEITEM"].elapsed_s
    assert lineitem > total / 2
