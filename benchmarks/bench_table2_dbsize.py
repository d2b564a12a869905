"""Table 2: DB sizes, original TPC-D DB vs SAP DB (data + indexes)."""

from repro.core.experiments import table2_dbsize


def test_table2_dbsize(benchmark, data, rdbms, r3_22):
    result = benchmark.pedantic(
        lambda: table2_dbsize(data=data, db=rdbms, r3=r3_22),
        rounds=1, iterations=1,
    )
    print()
    print(result.render())
    benchmark.extra_info["data_inflation"] = round(result.data_inflation, 2)
    benchmark.extra_info["index_inflation"] = round(result.index_inflation, 2)
    assert result.data_inflation > 3.0
    assert result.index_inflation > 2.0
