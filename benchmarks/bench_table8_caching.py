"""Table 8 / Figure 5: application-server table buffering of MARA."""

from repro.core.experiments import table8_caching


def test_table8_caching(benchmark, r3_30):
    result = benchmark.pedantic(
        lambda: table8_caching(r3_30), rounds=1, iterations=1,
    )
    print()
    print(result.render())
    none_cost = result.configs["none"][1]
    large_cost = result.configs["large"][1]
    benchmark.extra_info["large_cache_speedup"] = round(
        none_cost / max(large_cost, 1e-9), 2
    )
    assert result.configs["small"][0] < result.configs["large"][0]
    assert none_cost > 2 * large_cost
