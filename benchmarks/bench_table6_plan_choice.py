"""Table 6 / Figure 3: the parameterized-query optimizer trap."""

from repro.core.experiments import table6_plan_choice


def test_table6_plan_choice(benchmark, r3_30):
    result = benchmark.pedantic(
        lambda: table6_plan_choice(r3_30), rounds=1, iterations=1,
    )
    print()
    print(result.render())
    benchmark.extra_info["trap_ratio"] = round(
        result.times[("open", "low")]
        / max(result.times[("native", "low")], 1e-9), 1
    )
    # The trap: identical answers, wildly different cost.
    assert result.rows[("native", "low")] == result.rows[("open", "low")]
    assert result.times[("open", "low")] > \
        10 * result.times[("native", "low")]
    assert result.times[("open", "high")] < 1.0
