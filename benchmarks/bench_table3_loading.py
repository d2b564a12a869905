"""Table 3: loading the SAP database via batch input.

Runs at a reduced scale factor (the whole point of this table is that
the load takes a simulated month).  Reported per-entity times are the
two-process effective times, as in the paper.
"""

from repro.core.experiments import render_table3, table3_loading
from repro.tpcd.dbgen import generate

LOAD_SF = 0.0005


def test_table3_loading(benchmark):
    data = generate(LOAD_SF)
    timings = benchmark.pedantic(
        lambda: table3_loading(data=data, processes=2),
        rounds=1, iterations=1,
    )
    print(f"\nSF={LOAD_SF}")
    print(render_table3(timings))
    orders = timings.effective("ORDER+LINEITEM")
    others = sum(timings.effective(e) for e in timings.elapsed
                 if e != "ORDER+LINEITEM")
    benchmark.extra_info["orders_simulated_s"] = round(orders, 1)
    assert orders > others
